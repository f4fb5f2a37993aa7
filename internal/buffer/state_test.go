package buffer

import (
	"math/rand"
	"strings"
	"testing"

	"oodb/internal/storage"
)

// TestPoolRestoreRejectsInconsistentState feeds Restore crafted PoolStates
// that a real Snapshot never produces. Each must be refused with an error
// and leave the pool as it was: a negative pin count, or a policy whose
// membership (Pages ∪ Pages2) is not exactly the restored frames — with such
// a policy Victim can name a non-resident page, admit then evicts nothing,
// and residency grows past capacity.
func TestPoolRestoreRejectsInconsistentState(t *testing.T) {
	frames := []FrameState{{Page: 1}, {Page: 2, Dirty: true}, {Page: 3, Pins: 1}}
	state := func(ps PolicyState) PoolState {
		return PoolState{Capacity: 4, Frames: append([]FrameState(nil), frames...), Policy: ps}
	}
	lru := func(pages ...storage.PageID) PolicyState { return PolicyState{Kind: "LRU", Pages: pages} }
	cases := []struct {
		name   string
		policy func() Policy
		st     PoolState
		err    string // "" = must be accepted
	}{
		{"consistent", func() Policy { return NewLRU() }, state(lru(3, 2, 1)), ""},
		{"negative-pins", func() Policy { return NewLRU() },
			PoolState{Capacity: 4, Frames: []FrameState{{Page: 1, Pins: -1}}, Policy: lru(1)}, "pins"},
		{"lru-tracks-non-resident", func() Policy { return NewLRU() }, state(lru(3, 2, 1, 9)), "non-resident"},
		{"lru-misses-resident", func() Policy { return NewLRU() }, state(lru(3, 2)), "tracks 2 of 3"},
		{"lru-swaps-page", func() Policy { return NewLRU() }, state(lru(3, 2, 9)), "non-resident"},
		{"lru-tracks-twice", func() Policy { return NewLRU() }, state(lru(3, 2, 1, 1)), "twice"},
		{"pages2-overlaps-pages", func() Policy { return NewLRU() },
			state(PolicyState{Kind: "LRU", Pages: []storage.PageID{3, 2, 1}, Pages2: []storage.PageID{2}}), "twice"},
		{"pages2-non-resident", func() Policy { return NewLRU() },
			state(PolicyState{Kind: "LRU", Pages: []storage.PageID{3, 2, 1}, Pages2: []storage.PageID{7}}), "non-resident"},
		{"random-tracks-non-resident", func() Policy { return NewRandom(rand.New(rand.NewSource(1)), 0) },
			state(PolicyState{Kind: "Random", Pages: []storage.PageID{1, 2, 3, 9}}), "non-resident"},
		{"clock-misses-resident", func() Policy { return NewClock() },
			state(PolicyState{Kind: "CLOCK", Pages: []storage.PageID{1, 2}, Flags: []bool{false, true}}), "tracks 2 of 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(4, tc.policy())
			if _, err := p.Access(5); err != nil {
				t.Fatal(err)
			}
			err := p.Restore(tc.st)
			if tc.err == "" {
				if err != nil {
					t.Fatalf("consistent state rejected: %v", err)
				}
				if p.Resident() != len(tc.st.Frames) || !p.IsDirty(2) || p.Contains(5) {
					t.Fatalf("restore did not install the frames: resident=%d", p.Resident())
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("Restore error = %v, want one mentioning %q", err, tc.err)
			}
			if p.Resident() != 1 || !p.Contains(5) {
				t.Fatalf("rejected restore changed residency: resident=%d", p.Resident())
			}
		})
	}
}
