package engine

import (
	"testing"

	"oodb/internal/core"
	"oodb/internal/ocb"
)

// buildCase is one database-construction configuration: the OCT model and
// OCB under its uniform and Zipfian reference distributions, all under the
// default No_limit clustering with Linear_Split.
type buildCase struct {
	name   string
	config func(scale float64) Config
}

var buildCases = []buildCase{
	{"oct", DefaultConfig},
	{"ocb-uniform", func(scale float64) Config {
		c := DefaultConfig(scale)
		c.Workload = WorkloadOCB
		c.OCB = ocb.Params{RefDist: ocb.DistUniform}
		return c
	}},
	{"ocb-zipf", func(scale float64) Config {
		c := DefaultConfig(scale)
		c.Workload = WorkloadOCB
		c.OCB = ocb.Params{RefDist: ocb.DistZipf}
		return c
	}},
}

// placementDigest is the order-independent object->page digest of the
// engine's database as construction left it.
func placementDigest(e *Engine) uint64 {
	if e.ocbBase != nil {
		return e.ocbBase.Store.StateDigest()
	}
	return e.db.Store.StateDigest()
}

// TestConstructionPlacementPinned pins the placement that database
// construction produces under both split policies, so a change to the
// placement or split machinery that moves even one object fails here.
func TestConstructionPlacementPinned(t *testing.T) {
	want := map[string]uint64{
		"oct/Linear_Split":         0xdf81df9dd8a26103,
		"oct/NP_Split":             0xd323c37bbe8f9542,
		"ocb-uniform/Linear_Split": 0x51ee9d09368f788a,
		"ocb-uniform/NP_Split":     0x51ee9d09368f788a,
		"ocb-zipf/Linear_Split":    0x44cedf8c17caa7a4,
		"ocb-zipf/NP_Split":        0x3991208d6bdf7016,
	}
	for _, c := range buildCases {
		for _, sp := range []core.SplitPolicy{core.LinearSplit, core.NPSplit} {
			name := c.name + "/" + sp.String()
			cfg := c.config(0.02)
			cfg.Split = sp
			e, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: New: %v", name, err)
			}
			if err := e.store.CheckInvariants(); err != nil {
				t.Fatalf("%s: storage invariants after construction: %v", name, err)
			}
			if got := placementDigest(e); got != want[name] {
				t.Errorf("%s: construction placement digest %#x, want %#x", name, got, want[name])
			}
		}
	}
}

// BenchmarkBuildDatabase times database construction end to end: object
// base generation plus placing every object through the clusterer, at 5% of
// the paper's database (the scale the wall-clock benchmark runs at).
//
//	go test -run '^$' -bench BuildDatabase -benchtime 3x ./internal/engine/
func BenchmarkBuildDatabase(b *testing.B) {
	for _, c := range buildCases {
		b.Run(c.name, func(b *testing.B) {
			cfg := c.config(0.05)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
