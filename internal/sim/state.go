package sim

import (
	"fmt"
	"math/rand"

	"oodb/internal/stats"
)

// Checkpoint support for the kernel. Closures on the event calendar cannot
// be serialized, so the kernel does not snapshot pending events — the engine
// checkpoints only at quiescent points where it can describe every pending
// event itself (a user think-wake is fully determined by its user, fire
// time, and sequence number) and re-schedule them after restore with
// ScheduleRestored. What the kernel does own is the clock, the event
// sequence counter (the FIFO tiebreaker — it must survive restore so
// simultaneous events keep their relative order), and how far every named
// random stream has advanced.

// stream pairs a memoized *rand.Rand with the counting source beneath it.
// Components hold the *rand.Rand pointer, so restore rewinds the source in
// place rather than replacing the rand.Rand.
type stream struct {
	rng *rand.Rand
	src *countingSource
}

// countingSource wraps a rand.Source64 and counts state advances. Go's
// rngSource steps its state exactly once per Int63 or Uint64 call, so the
// count alone reconstructs the source's position: re-seed and discard that
// many draws.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// rewind re-seeds the source and fast-forwards it n state steps.
func (c *countingSource) rewind(seed int64, n uint64) {
	c.src.Seed(seed)
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
	c.n = n
}

// State is the serializable kernel state: clock, counters, and the draw
// count of every named stream. Pending events are deliberately absent — the
// checkpointing layer re-creates them via ScheduleRestored.
type State struct {
	Now      Time
	Seq      uint64
	Executed uint64
	Streams  map[string]uint64
}

// Snapshot captures the kernel state. Pending events are not captured;
// callers snapshot only when they can reconstruct the calendar themselves.
func (s *Sim) Snapshot() State {
	st := State{Now: s.now, Seq: s.seq, Executed: s.nrun}
	if len(s.streams) > 0 {
		st.Streams = make(map[string]uint64, len(s.streams))
		for name, str := range s.streams {
			st.Streams[name] = str.src.n
		}
	}
	return st
}

// Restore overwrites the kernel state: the calendar is cleared (the caller
// re-schedules pending events with ScheduleRestored), the clock and counters
// are set, and every named stream is rewound in place to its recorded draw
// count — so components holding *rand.Rand pointers keep working and draw
// the bit-identical continuation of the original sequence. Streams the
// snapshot does not mention are rewound to their start.
func (s *Sim) Restore(st State) error {
	s.cal.clear()
	s.now = st.Now
	s.seq = st.Seq
	s.nrun = st.Executed
	for name, n := range st.Streams {
		s.Stream(name) // materialize if absent
		s.streams[name].src.rewind(streamSeed(s.seed, name), n)
	}
	for name, str := range s.streams {
		if _, ok := st.Streams[name]; !ok {
			str.src.rewind(streamSeed(s.seed, name), 0)
		}
	}
	return nil
}

// LastSeq returns the sequence number assigned to the most recently
// scheduled event. Immediately after At/After it identifies that event, so
// a checkpointer can record a pending event's FIFO position.
func (s *Sim) LastSeq() uint64 { return s.seq }

// ScheduleRestored schedules fn at absolute time t with an explicit
// sequence number, without advancing the sequence counter. It exists solely
// for checkpoint restore: re-created events keep their original FIFO
// tiebreak order relative to each other and to events scheduled afterward.
func (s *Sim) ScheduleRestored(t Time, seq uint64, fn func()) {
	if t < s.now {
		panic("sim: restoring event in the past")
	}
	if seq > s.seq {
		panic("sim: restoring event from the future (seq beyond counter)")
	}
	s.cal.push(event{t: t, seq: seq, fn: fn})
}

// Step executes exactly one event, advancing the clock to it. It returns
// false if the calendar is empty. Checkpointing runs use Step so they can
// test for quiescence between events.
func (s *Sim) Step() bool {
	if len(s.cal) == 0 {
		return false
	}
	e := s.cal.pop()
	s.now = e.t
	e.fn()
	s.nrun++
	return true
}

// StationState is the serializable state of a Station: its arrival count
// and accumulated statistics. In-service and queued requests are not
// representable (their completions are closures), so stations can only be
// snapshotted and restored while idle.
type StationState struct {
	Arrivals int
	Util     stats.TimeWeightedState
	QLen     stats.TimeWeightedState
	Wait     stats.TallyState
	Service  stats.TallyState
}

// Snapshot captures the station's statistics. The caller must ensure the
// station is idle (Busy()==0, QueueLen()==0); the engine's quiescence check
// guarantees this.
func (st *Station) Snapshot() StationState {
	return StationState{
		Arrivals: st.arrivals,
		Util:     st.util.Snapshot(),
		QLen:     st.qlen.Snapshot(),
		Wait:     st.wait.Snapshot(),
		Service:  st.service.Snapshot(),
	}
}

// Restore overwrites the station's statistics. It fails if the station has
// in-flight or queued work, which a snapshot cannot represent.
func (st *Station) Restore(s StationState) error {
	if st.busy > 0 || len(st.queue) > 0 {
		return fmt.Errorf("sim: station %s not idle (busy=%d queued=%d)", st.name, st.busy, len(st.queue))
	}
	st.arrivals = s.Arrivals
	if err := st.util.Restore(s.Util); err != nil {
		return err
	}
	if err := st.qlen.Restore(s.QLen); err != nil {
		return err
	}
	if err := st.wait.Restore(s.Wait); err != nil {
		return err
	}
	return st.service.Restore(s.Service)
}
