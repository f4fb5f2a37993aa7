package core

import (
	"testing"

	"oodb/internal/buffer"
	"oodb/internal/model"
	"oodb/internal/storage"
)

// fixture builds a graph with a root type (config-down dominant) and a leaf
// type (config-up dominant) plus a clusterer over a pool.
type fixture struct {
	g     *model.Graph
	st    *storage.Manager
	pool  *buffer.Pool
	c     *Clusterer
	rootT model.TypeID
	leafT model.TypeID
}

func newFixture(t *testing.T, pageSize, frames int) *fixture {
	t.Helper()
	g := model.NewGraph()
	var rf, lf model.FreqProfile
	rf[model.ConfigDown] = 0.5
	rf[model.Correspondence] = 0.2
	lf[model.ConfigUp] = 0.6
	rootT, err := g.DefineType("root", model.NilType, 200, rf, nil)
	if err != nil {
		t.Fatal(err)
	}
	leafT, err := g.DefineType("leaf", model.NilType, 100, lf, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewManager(g, pageSize)
	pool := buffer.NewPool(frames, buffer.NewLRU())
	c := NewClusterer(g, st, pool)
	c.Policy = PolicyNoLimit
	return &fixture{g: g, st: st, pool: pool, c: c, rootT: rootT, leafT: leafT}
}

func (f *fixture) mustPlace(t *testing.T, o *model.Object) Placement {
	t.Helper()
	pl, err := f.c.PlaceNew(o)
	if err != nil {
		t.Fatalf("PlaceNew(%d): %v", o.ID, err)
	}
	return pl
}

func (f *fixture) newLeafUnder(t *testing.T, parent model.ObjectID, i int) *model.Object {
	t.Helper()
	o, err := f.g.NewObject("L", i, f.leafT)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.g.Attach(parent, o.ID); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestPlaceNewCoLocatesWithParent(t *testing.T) {
	f := newFixture(t, 4096, 8)
	root, _ := f.g.NewObject("R", 1, f.rootT)
	rp := f.mustPlace(t, root)
	for i := 0; i < 10; i++ {
		leaf := f.newLeafUnder(t, root.ID, i)
		pl := f.mustPlace(t, leaf)
		if pl.Page != rp.Page {
			t.Fatalf("leaf %d on page %d, root on %d", i, pl.Page, rp.Page)
		}
	}
	if err := f.st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceNewSiblingPagesWhenParentFull(t *testing.T) {
	f := newFixture(t, 512, 8) // root 200 + 3 leaves*100 fills the page
	root, _ := f.g.NewObject("R", 1, f.rootT)
	rp := f.mustPlace(t, root)
	var pages []storage.PageID
	for i := 0; i < 7; i++ {
		leaf := f.newLeafUnder(t, root.ID, i)
		pl := f.mustPlace(t, leaf)
		pages = append(pages, pl.Page)
	}
	// First three fit with the root, the rest must co-locate with siblings
	// rather than scattering one per page.
	distinct := map[storage.PageID]bool{}
	for _, pg := range pages {
		distinct[pg] = true
	}
	if pages[0] != rp.Page {
		t.Fatal("first leaf should join the root page")
	}
	if len(distinct) > 2 {
		t.Fatalf("leaves scattered over %d pages", len(distinct))
	}
}

func TestPlaceNewDoubleplacementFails(t *testing.T) {
	f := newFixture(t, 4096, 8)
	root, _ := f.g.NewObject("R", 1, f.rootT)
	f.mustPlace(t, root)
	if _, err := f.c.PlaceNew(root); err == nil {
		t.Fatal("placing a placed object must fail")
	}
}

func TestNoClusterSequentialFill(t *testing.T) {
	f := newFixture(t, 1024, 8)
	f.c.Policy = PolicyNoCluster
	root, _ := f.g.NewObject("R", 1, f.rootT)
	f.mustPlace(t, root)
	// Leaves fill sequentially regardless of relationships; candidate I/Os
	// must be zero.
	for i := 0; i < 20; i++ {
		leaf := f.newLeafUnder(t, root.ID, i)
		f.mustPlace(t, leaf)
	}
	if f.c.Stats().CandidateIOs != 0 {
		t.Fatal("No_Cluster must not inspect candidates")
	}
	if got := f.st.NumPages(); got != 3 {
		// 200 + 20*100 = 2200 bytes over 1024-byte pages ~ 3 pages.
		t.Fatalf("pages=%d, want dense sequential fill (3)", got)
	}
}

func TestWithinBufferNeverSpendsIO(t *testing.T) {
	f := newFixture(t, 4096, 2) // tiny pool so candidates fall out
	f.c.Policy = PolicyWithinBuffer
	root, _ := f.g.NewObject("R", 1, f.rootT)
	root.Size = 4000 // leaves cannot share its page unless via candidates
	f.mustPlace(t, root)
	// Flood the pool so the root page is evicted.
	for pg := f.st.AllocatePage(); pg < 10; pg = f.st.AllocatePage() {
		f.pool.Access(pg) //nolint:errcheck
	}
	leaf := f.newLeafUnder(t, root.ID, 0)
	pl := f.mustPlace(t, leaf)
	if f.c.Stats().CandidateIOs != 0 {
		t.Fatal("Within_Buffer clustering must never read candidates from disk")
	}
	if pl.Page == f.st.PageOf(root.ID) {
		t.Fatal("non-resident candidate should have been unusable")
	}
}

func TestIOLimitBudget(t *testing.T) {
	f := newFixture(t, 4096, 2)
	f.c.Policy = ClusterPolicy{Mode: ClusterIOLimit, IOLimit: 2}
	// Build a leaf with many placed neighbors on distinct non-resident pages.
	var comps []*model.Object
	for i := 0; i < 6; i++ {
		r, _ := f.g.NewObject("R", i, f.rootT)
		r.Size = 4000 // nearly fills its page so the leaf cannot join
		f.mustPlace(t, r)
		comps = append(comps, r)
	}
	// Evict everything.
	for pg := f.st.AllocatePage(); pg < 20; pg = f.st.AllocatePage() {
		f.pool.Access(pg) //nolint:errcheck
	}
	leaf, _ := f.g.NewObject("L", 1, f.leafT)
	for _, r := range comps {
		if err := f.g.Attach(r.ID, leaf.ID); err != nil {
			t.Fatal(err)
		}
	}
	f.c.ResetStats()
	f.mustPlace(t, leaf)
	if got := f.c.Stats().CandidateIOs; got > 2 {
		t.Fatalf("candidate I/Os %d exceed the 2-I/O budget", got)
	}
}

func TestReclusterMovesTowardNewParent(t *testing.T) {
	f := newFixture(t, 4096, 8)
	r1, _ := f.g.NewObject("R", 1, f.rootT)
	r2, _ := f.g.NewObject("R", 2, f.rootT)
	p1 := f.mustPlace(t, r1)
	// Force r2 onto a different page by filling... simply place it and move
	// on; with both roots tiny they may share a page, so pad r2.
	r2.Size = 3000
	p2 := f.mustPlace(t, r2)
	if p1.Page == p2.Page {
		t.Fatal("fixture: roots must land on different pages")
	}
	leaf := f.newLeafUnder(t, r1.ID, 0)
	f.mustPlace(t, leaf)
	if f.st.PageOf(leaf.ID) != p1.Page {
		t.Fatal("leaf should start with r1")
	}
	// Restructure: move the leaf under r2 (and detach from r1).
	if err := f.g.Detach(r1.ID, leaf.ID); err != nil {
		t.Fatal(err)
	}
	if err := f.g.Attach(r2.ID, leaf.ID); err != nil {
		t.Fatal(err)
	}
	pl, err := f.c.Recluster(leaf)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Moved || pl.Page != p2.Page {
		t.Fatalf("recluster should move the leaf to r2's page: %+v", pl)
	}
	if f.st.PageOf(leaf.ID) != p2.Page {
		t.Fatal("storage map not updated")
	}
	if len(pl.DirtyPages) != 2 {
		t.Fatalf("a move dirties both pages: %v", pl.DirtyPages)
	}
}

func TestReclusterNoClusterIsNoop(t *testing.T) {
	f := newFixture(t, 4096, 8)
	f.c.Policy = PolicyNoCluster
	root, _ := f.g.NewObject("R", 1, f.rootT)
	f.mustPlace(t, root)
	pl, err := f.c.Recluster(root)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Moved || len(pl.IOs) != 0 {
		t.Fatal("No_Cluster recluster must be a no-op")
	}
	leaf, _ := f.g.NewObject("L", 1, f.leafT)
	if _, err := f.c.Recluster(leaf); err == nil {
		t.Fatal("recluster of unplaced object must fail")
	}
}

func TestReclusterStaysWhenCurrentBest(t *testing.T) {
	f := newFixture(t, 4096, 8)
	root, _ := f.g.NewObject("R", 1, f.rootT)
	rp := f.mustPlace(t, root)
	leaf := f.newLeafUnder(t, root.ID, 0)
	f.mustPlace(t, leaf)
	pl, err := f.c.Recluster(leaf)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Moved {
		t.Fatal("already-optimal placement must not move")
	}
	if pl.Page != rp.Page {
		t.Fatalf("page=%d", pl.Page)
	}
}

// TestSplitTriggersAndRelocates fills the root page and inserts one more
// leaf: with no alternative candidate carrying affinity, the split decision
// compares cut cost against the full affinity loss and should split under
// both policies. Only NP_Split runs the Figure 5.10 cut comparison, and it
// compares every split it performs.
func TestSplitTriggersAndRelocates(t *testing.T) {
	for _, sp := range []SplitPolicy{LinearSplit, NPSplit} {
		f := newFixture(t, 1024, 16)
		f.c.Split = sp
		root, _ := f.g.NewObject("R", 1, f.rootT)
		f.mustPlace(t, root)
		var last Placement
		for i := 0; i < 12; i++ {
			leaf := f.newLeafUnder(t, root.ID, i)
			last = f.mustPlace(t, leaf)
		}
		st := f.c.Stats()
		if st.Splits == 0 {
			t.Fatalf("%v: expected at least one split; last placement %+v, stats %+v", sp, last, st)
		}
		switch sp {
		case LinearSplit:
			if st.SplitsCompared != 0 || st.GreedyCutTotal != 0 || st.OptimalCutTotal != 0 {
				t.Fatalf("Linear_Split must not run the NP cut comparison: %+v", st)
			}
		case NPSplit:
			if st.SplitsCompared != st.Splits {
				t.Fatalf("every performed NP split must also be cost-compared: %+v", st)
			}
			if st.OptimalCutTotal > st.GreedyCutTotal+1e-9 {
				t.Fatalf("NP cut total exceeds greedy: %+v", st)
			}
		}
		if err := f.st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAffinityHintDoubling(t *testing.T) {
	f := newFixture(t, 4096, 8)
	root, _ := f.g.NewObject("R", 1, f.rootT)
	f.mustPlace(t, root)
	leaf := f.newLeafUnder(t, root.ID, 0)
	f.mustPlace(t, leaf)
	base := f.c.Affinity(leaf, f.st.PageOf(root.ID))
	f.c.Hints = UserHints
	f.c.Hint = Hint{Kind: model.ConfigUp, Active: true}
	hinted := f.c.Affinity(leaf, f.st.PageOf(root.ID))
	if hinted <= base {
		t.Fatalf("hint must raise affinity along the hinted kind: %v -> %v", base, hinted)
	}
	if f.c.Affinity(leaf, storage.NilPage) != 0 {
		t.Fatal("affinity to nil page must be 0")
	}
}

func TestFallbackSeedsFreshPageForComposites(t *testing.T) {
	f := newFixture(t, 1024, 8)
	// Roots have config-down frequency; with no candidates they seed fresh
	// pages rather than sharing a fill page.
	r1, _ := f.g.NewObject("R", 1, f.rootT)
	r2, _ := f.g.NewObject("R", 2, f.rootT)
	p1 := f.mustPlace(t, r1)
	p2 := f.mustPlace(t, r2)
	if p1.Page == p2.Page {
		t.Fatal("unrelated composites must seed separate pages")
	}
	// Leaves with no placed neighbors pack onto the shared spill page.
	l1, _ := f.g.NewObject("L", 1, f.leafT)
	l2, _ := f.g.NewObject("L", 2, f.leafT)
	q1 := f.mustPlace(t, l1)
	q2 := f.mustPlace(t, l2)
	if q1.Page != q2.Page {
		t.Fatal("loner leaves should pack onto the spill page")
	}
}
