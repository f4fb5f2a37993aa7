package main

import (
	"math"
	"testing"

	"oodb/internal/stats"
)

// A synthetic tree: a run phase [0,100] with two overlapping session-level
// children, one of which (a PlaceNew) has storage children that overlap each
// other and run past its end.
func TestSelfTimeSyntheticTree(t *testing.T) {
	spans := []Span{
		{ID: 3, Parent: 2, Name: spanPlace, Start: 15, End: 20},
		{ID: 4, Parent: 2, Name: spanReadPage, Start: 18, End: 25},
		{ID: 5, Parent: 2, Name: spanMove, Start: 40, End: 60}, // clipped to 50
		{ID: 2, Parent: 1, Name: spanPlaceNew, Start: 10, End: 50},
		{ID: 6, Parent: 1, Name: spanRecluster, Start: 45, End: 70},
		{ID: 1, Parent: 0, Name: spanRun, Start: 0, End: 100},
		{ID: 8, Parent: 7, Name: spanBootstrap, Start: 200, End: 210},
		{ID: 7, Parent: 0, Name: spanConstruct, Start: 150, End: 250},
	}
	st := totals(spans)
	want := map[spanName][3]int64{ // count, total, self
		spanRun:       {1, 100, 40}, // children cover [10,70]
		spanPlaceNew:  {1, 40, 20},  // children cover [15,25] and [40,50]
		spanRecluster: {1, 25, 25},
		spanPlace:     {1, 5, 5},
		spanReadPage:  {1, 7, 7},
		spanMove:      {1, 20, 20},
		spanConstruct: {1, 100, 90},
		spanBootstrap: {1, 10, 10},
	}
	for name, w := range want {
		got := [3]int64{st.count[name], st.total[name], st.self[name]}
		if got != w {
			t.Errorf("%s: (count, total, self) = %v, want %v", name, got, w)
		}
	}

	phases := byPhase(spans)
	if n := len(phases[spanRun]); n != 6 {
		t.Errorf("run phase holds %d spans, want 6", n)
	}
	if n := len(phases[spanConstruct]); n != 2 {
		t.Errorf("construct phase holds %d spans, want 2", n)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	phase := tr.enter(spanRun)
	s := tr.enter(spanPlaceNew)
	c := tr.begin(spanPlace)
	tr.end(c)
	tr.exit(s)
	after := tr.begin(spanReadPage)
	tr.end(after)
	tr.exit(phase)
	parent := map[spanName]spanName{}
	byID := map[int32]spanName{}
	for _, sp := range tr.Spans() {
		byID[sp.ID] = sp.Name
	}
	for _, sp := range tr.Spans() {
		parent[sp.Name] = byID[sp.Parent]
	}
	if parent[spanPlace] != spanPlaceNew || parent[spanPlaceNew] != spanRun || parent[spanReadPage] != spanRun {
		t.Errorf("parents = %v", parent)
	}
}

func TestQuantileInterpolatesWithinBucket(t *testing.T) {
	var h stats.Hist
	for i := 0; i < 50; i++ {
		h.Record(5)
		h.Record(6)
	}
	for _, c := range []struct{ q, want float64 }{{0.25, 5.5}, {0.5, 6}, {0.75, 6.5}} {
		if got := quantileUS(&h, 1000, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q%.2f = %v, want %v", c.q, got, c.want)
		}
	}
}
