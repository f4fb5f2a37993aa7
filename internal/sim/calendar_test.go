package sim

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
)

// The event heap must dispatch in exact (time, seq) order for every
// schedule: exact ties broken FIFO by sequence, sub-millisecond orderings,
// delays spanning milliseconds to years, and long interleavings of pushes
// and pops. These tests drive the heap and a sort-based reference with the
// same operation sequences and compare event by event. (The kernel has no
// cancel operation — events leave the calendar only by firing — so pops
// double as the removal path under test.)

// sortedRef is the reference calendar: a slice kept sorted by (t, seq), so
// its head is by construction the next event due. It spells the ordering
// out itself rather than calling event.before, so a fault in before cannot
// hide by corrupting the heap and the reference alike.
type sortedRef []event

func (r *sortedRef) push(e event) {
	s := *r
	i := sort.Search(len(s), func(i int) bool {
		return s[i].t > e.t || (s[i].t == e.t && s[i].seq > e.seq)
	})
	s = append(s, event{})
	copy(s[i+1:], s[i:])
	s[i] = e
	*r = s
}

func (r *sortedRef) pop() event {
	e := (*r)[0]
	*r = (*r)[1:]
	return e
}

// drive applies the same operation tape to the heap and the reference and
// fails on the first divergence. ops > 0 pushes an event at now+delay(op);
// ops <= 0 pops.
func drive(t *testing.T, delays []float64, tape []int) {
	t.Helper()
	var h eventHeap
	var ref sortedRef
	var now float64
	var seq uint64
	di := 0
	for step, op := range tape {
		if op > 0 {
			seq++
			d := delays[di%len(delays)]
			di++
			e := event{t: now + d, seq: seq}
			h.push(e)
			ref.push(e)
			continue
		}
		if len(h) != len(ref) {
			t.Fatalf("step %d: len heap=%d ref=%d", step, len(h), len(ref))
		}
		if len(ref) == 0 {
			continue
		}
		if h[0].t != ref[0].t || h[0].seq != ref[0].seq {
			t.Fatalf("step %d: head heap=(%.9g,%d) ref=(%.9g,%d)",
				step, h[0].t, h[0].seq, ref[0].t, ref[0].seq)
		}
		he, re := h.pop(), ref.pop()
		if he.t != re.t || he.seq != re.seq {
			t.Fatalf("step %d: pop heap=(%.9g,%d) ref=(%.9g,%d)",
				step, he.t, he.seq, re.t, re.seq)
		}
		now = he.t // mimic the kernel: time advances to the popped event
	}
	// Drain both fully and compare the tails.
	for len(ref) > 0 {
		if len(h) == 0 {
			t.Fatalf("drain: heap empty with %d reference events left", len(ref))
		}
		he, re := h.pop(), ref.pop()
		if he.t != re.t || he.seq != re.seq {
			t.Fatalf("drain: heap=(%.9g,%d) ref=(%.9g,%d)", he.t, he.seq, re.t, re.seq)
		}
	}
	if len(h) != 0 {
		t.Fatalf("drain: reference empty, heap still holds %d", len(h))
	}
}

// pushPopTape interleaves bursts of pushes with draining pops, the shape of
// a closed queueing network's schedule.
func pushPopTape(pushes, burst int) []int {
	var tape []int
	for len(tape) < pushes*2 {
		for i := 0; i < burst; i++ {
			tape = append(tape, 1)
		}
		for i := 0; i < burst; i++ {
			tape = append(tape, -1)
		}
	}
	return tape
}

func TestCalendarDifferentialTies(t *testing.T) {
	// Exact ties (identical float) must fall back to sequence order, and
	// distinct times closer than a millisecond must still order exactly.
	delays := []float64{
		0, 0, 0, // exact ties → seq order
		1e-3, 1e-3, // tied again, one millisecond on
		0.25e-3, 0.75e-3, // sub-millisecond, distinct
		1.0000001e-3, 0.9999999e-3, // a hair either side of 1 ms
		0.05, 0.0500001, // CPU-quantum scale
	}
	drive(t, delays, pushPopTape(400, 7))
}

func TestCalendarDifferentialCrossLevel(t *testing.T) {
	// Delays spanning five orders of magnitude at once: disk and CPU
	// service, think times, hours, and days all pending together.
	delays := []float64{
		0.001, 0.02, // service times
		1, 7, 30, // think times
		3600, 9000, // hours
		86400 * 3, // days
	}
	drive(t, delays, pushPopTape(600, 5))
}

func TestCalendarDifferentialOverflow(t *testing.T) {
	// Far-future events (months to a year out, with a tie) held while near
	// events keep cycling past them.
	day := 86400.0
	delays := []float64{
		0.01, 1, // near events
		60 * day, 61 * day, 60 * day, // far future, with a tie
		365 * day, // a year out
	}
	drive(t, delays, pushPopTape(200, 3))
}

func TestCalendarDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		var delays []float64
		for i := 0; i < 16; i++ {
			switch rng.Intn(4) {
			case 0:
				delays = append(delays, 0)
			case 1:
				delays = append(delays, rng.Float64()*1e-3)
			case 2:
				delays = append(delays, rng.Float64()*100)
			default:
				delays = append(delays, rng.Float64()*1e7)
			}
		}
		var tape []int
		pending := 0
		for len(tape) < 1000 {
			if pending > 0 && rng.Intn(2) == 0 {
				tape = append(tape, -1)
				pending--
			} else {
				tape = append(tape, 1)
				pending++
			}
		}
		drive(t, delays, tape)
	}
}

// TestHeapClear verifies clear() empties the heap, releases every closure,
// and leaves it reusable — including for times earlier than anything it
// held before.
func TestHeapClear(t *testing.T) {
	var h eventHeap
	var seq uint64
	for _, d := range []float64{0, 1e-4, 5, 3600, 1e7, 1e9} {
		seq++
		h.push(event{t: d, seq: seq, fn: func() {}})
	}
	h.pop()
	h.clear()
	if len(h) != 0 {
		t.Fatalf("len=%d after clear", len(h))
	}
	for i, e := range h[:cap(h)] {
		if e.fn != nil {
			t.Fatalf("slot %d still holds a closure after clear", i)
		}
	}
	h.push(event{t: 0, seq: 1})
	if e := h.pop(); e.t != 0 || e.seq != 1 {
		t.Fatalf("post-clear pop = (%g,%d)", e.t, e.seq)
	}
}

// FuzzCalendar feeds random operation tapes to the heap and the sorted
// reference. Each pair of input bytes encodes one operation: odd first byte
// pops, even pushes with a delay scaled from the pair — spanning exact ties
// through sub-millisecond to months.
func FuzzCalendar(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x00, 0xff, 0x01, 0x00})
	f.Add([]byte{0x02, 0x00, 0x02, 0x00, 0x02, 0x00, 0x01, 0x00, 0x01, 0x00})
	f.Add([]byte{0x04, 0xf0, 0x06, 0xf0, 0x01, 0x00, 0x04, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h eventHeap
		var ref sortedRef
		var now float64
		var seq uint64
		for i := 0; i+1 < len(data); i += 2 {
			if data[i]&1 == 1 {
				if len(ref) == 0 {
					if len(h) != 0 {
						t.Fatalf("reference empty, heap len=%d", len(h))
					}
					continue
				}
				he, re := h.pop(), ref.pop()
				if he.t != re.t || he.seq != re.seq {
					t.Fatalf("pop heap=(%.9g,%d) ref=(%.9g,%d)", he.t, he.seq, re.t, re.seq)
				}
				now = he.t
				continue
			}
			// Delay from the byte pair: a 16-bit mantissa scaled by a
			// magnitude picked from its low bits, hitting ties (0),
			// sub-millisecond, seconds, and far-future ranges.
			m := binary.LittleEndian.Uint16(data[i : i+2])
			scale := [4]float64{0, 1e-5, 0.5, 1e5}[m&3]
			d := float64(m>>2) * scale
			seq++
			e := event{t: now + d, seq: seq}
			h.push(e)
			ref.push(e)
		}
		for len(ref) > 0 {
			he, re := h.pop(), ref.pop()
			if he.t != re.t || he.seq != re.seq {
				t.Fatalf("drain heap=(%.9g,%d) ref=(%.9g,%d)", he.t, he.seq, re.t, re.seq)
			}
		}
		if len(h) != 0 {
			t.Fatalf("heap holds %d events after the reference drained", len(h))
		}
	})
}
