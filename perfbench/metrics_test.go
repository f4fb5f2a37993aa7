package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	f := readBenchmarkFile(t)
	e2e := map[string]string{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range f.PerLayer {
		layer[m.Name] = m.Unit
	}
	sameMap(t, "BENCHMARK.json end_to_end", e2e, endToEndUnits)
	sameMap(t, "BENCHMARK.json per_layer", layer, perLayerUnits)

	var names, want []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, perfbench has %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, perfbench has %v", names, want)
		}
	}
}

// sameMap checks that got names the metrics of want, in the same units.
func sameMap(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for k, u := range want {
		if got[k] != u {
			t.Errorf("%s: %s in %q, perfbench's table says %q", what, k, got[k], u)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: %s is not in perfbench's table", what, k)
		}
	}
}

// TestSmokeEachWorkload runs every workload at a tiny size in both modes and
// checks that the printed metrics are exactly the ones BENCHMARK.json names.
func TestSmokeEachWorkload(t *testing.T) {
	const scale = 0.002
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := bench(w, scale, 7, 300, traced, t.TempDir())
			if r.Err != nil || !r.Line.Correct || r.Line.Failed != 0 {
				t.Fatalf("%s traced=%v: %v", w.name, traced, r.Err)
			}
			want := endToEndUnits
			if traced {
				want = perLayerUnits
			}
			got := map[string]string{}
			for k, m := range r.Line.Metrics {
				got[k] = m.Unit
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, k, m.Value)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w.name, k)
				}
			}
			sameMap(t, w.name+" printed", got, want)
			if r.Line.Attempted != 300*map[bool]int{false: w.cycles(), true: 3}[traced] {
				t.Errorf("%s traced=%v: attempted %d", w.name, traced, r.Line.Attempted)
			}
		}
	}
}
