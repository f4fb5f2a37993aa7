package experiment

import (
	"fmt"

	"oodb/internal/core"
	"oodb/internal/engine"
	"oodb/internal/workload"
)

func init() {
	register("fig5.9", Fig59)
	register("fig5.10", Fig510)
}

var splitPolicies = []core.SplitPolicy{core.NoSplit, core.LinearSplit, core.NPSplit}
var splitColumns = []string{"No_Splitting", "Linear_Split", "NP_Split"}

// Fig59 regenerates Figure 5.9: page-splitting policies across the nine
// workload classes, with clustering fixed to No_limit and the Section 5.1
// buffering levels (no prefetch, 1000 buffers, LRU).
func Fig59(h *Harness) (*Table, error) {
	t := &Table{
		ID:      "fig5.9",
		Title:   "Page Splitting Effects Analysis",
		XLabel:  "class",
		Unit:    "s (mean response time)",
		Columns: splitColumns,
	}
	b := h.batch()
	for _, d := range workload.Densities {
		for _, rw := range rwLevels {
			ri := len(t.Rows)
			t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%s-%g", d.Short(), rw)})
			for _, sp := range splitPolicies {
				cfg := h.clusteringBase()
				cfg.Cluster = core.PolicyNoLimit
				cfg.Density = d
				cfg.ReadWriteRatio = rw
				cfg.Split = sp
				b.add(cfg, func(r engine.Results) {
					t.Rows[ri].Cells = append(t.Rows[ri].Cells, r.MeanResponse)
				})
			}
		}
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: no-splitting wins at low R/W; linear split best at high R/W + high density; NP and linear similar at low density; splitting has little influence overall (Fig 6.1)")
	return t, nil
}

// Fig510 regenerates Figure 5.10: the total cut-cost difference between the
// Linear_Split heuristic and the optimal NP_Split partition across workload
// classes. The runs use NP_Split, under which the cluster manager computes
// both partitions at every feasible overflow on identical inputs (the exact
// search is seeded with the greedy one), so the difference isolates
// partition quality from policy trajectory. Linear_Split runs do not
// collect the comparison.
func Fig510(h *Harness) (*Table, error) {
	t := &Table{
		ID:      "fig5.10",
		Title:   "Total Cost Difference between Linear and NP Split",
		XLabel:  "class",
		Unit:    "summed cut-cost (frequency units)",
		Columns: []string{"Linear_cut", "NP_cut", "difference", "splits"},
	}
	b := h.batch()
	for _, d := range workload.Densities {
		for _, rw := range rwLevels {
			cfg := h.clusteringBase()
			cfg.Cluster = core.PolicyNoLimit
			cfg.Density = d
			cfg.ReadWriteRatio = rw
			cfg.Split = core.NPSplit
			ri := len(t.Rows)
			t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%s-%g", d.Short(), rw)})
			b.add(cfg, func(r engine.Results) {
				cs := r.Cluster
				t.Rows[ri].Cells = []float64{
					cs.GreedyCutTotal, cs.OptimalCutTotal,
					cs.GreedyCutTotal - cs.OptimalCutTotal,
					float64(cs.SplitsCompared),
				}
			})
		}
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"NP_Split always finds the minimum-cost partition; the difference is the cost the linear heuristic gives up",
		"paper: NP and Linear perform similarly at low density (few arcs in the dependency graph)")
	return t, nil
}
