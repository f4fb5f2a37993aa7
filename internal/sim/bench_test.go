package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkCalendar measures raw event scheduling and dispatch.
func BenchmarkCalendar(b *testing.B) {
	s := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.After(0.001, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	if b.N > 0 {
		s.After(0.001, tick)
		s.RunAll()
	}
}

// BenchmarkCalendarScaling measures heap cost as the pending-event
// population grows: each in-flight "user" reschedules itself with a spread
// of think times, so per-op cost tracks log n of the pending count.
func BenchmarkCalendarScaling(b *testing.B) {
	for _, users := range []int{32, 1024, 32768} {
		b.Run(fmt.Sprint(users), func(b *testing.B) {
			s := New(1)
			left := b.N
			var tick func()
			tick = func() {
				if left > 0 {
					left--
					s.After(1+float64(left%1000)*0.013, tick)
				}
			}
			for i := 0; i < users; i++ {
				s.After(float64(i%1000)*0.011, tick)
			}
			b.ReportAllocs()
			b.ResetTimer()
			s.RunAll()
		})
	}
}

// BenchmarkEventCalendar drives the calendar with a realistic pending-event
// population (one event per simulated user plus background activity) and
// reports allocations per scheduled-and-dispatched event. The typed heap
// must hold this at zero in steady state: the backing slice is grown once
// during warmup and then reused.
func BenchmarkEventCalendar(b *testing.B) {
	const pending = 32 // concurrent events in flight, like 10 users + disks
	s := New(1)
	var tick func()
	left := b.N
	tick = func() {
		if left > 0 {
			left--
			s.After(0.001+float64(left%7)*0.0001, tick)
		}
	}
	// Warm the calendar so slice growth happens before measurement.
	for i := 0; i < pending; i++ {
		s.After(0.0005*float64(i), tick)
	}
	s.Run(0.0005 * pending)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	s.RunAll()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if b.N > 0 {
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/event")
	}
}

// BenchmarkStation measures the FCFS station under sustained load.
func BenchmarkStation(b *testing.B) {
	s := New(1)
	st := NewStation(s, "disk", 1)
	n := 0
	var submit func()
	submit = func() {
		n++
		if n < b.N {
			st.Request(0.001, submit)
		}
	}
	b.ResetTimer()
	if b.N > 0 {
		st.Request(0.001, submit)
		s.RunAll()
	}
}
