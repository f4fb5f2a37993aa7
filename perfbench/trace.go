package main

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanName identifies what a span timed: a top-level call perfbench makes,
// or a call into a layer seam the wrappers intercept.
type spanName uint8

const (
	spanGenerate     spanName = iota // ocb.Generate / workload.Generate
	spanConstruct                    // engine.New / engine.NewConcurrent
	spanRun                          // Run
	spanClose                        // Close
	spanRecover                      // storage.RecoverDir
	spanPlaceNew                     // ClusterStrategy.PlaceNew
	spanRecluster                    // ClusterStrategy.Recluster
	spanPlace                        // Backend.Place
	spanRemove                       // Backend.Remove
	spanMove                         // Backend.Move
	spanReadPage                     // PageIO.ReadPage
	spanWritePage                    // PageIO.WritePage
	spanLogBegin                     // TxnLog.LogBegin
	spanLogCommit                    // TxnLog.LogCommit
	spanLogAbort                     // TxnLog.LogAbort
	spanBootstrap                    // Durable.CommitBootstrap
	spanDurableClose                 // Durable.Close
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"generate", "construct", "run", "close", "recover",
	"core.PlaceNew", "core.Recluster",
	"storage.Place", "storage.Remove", "storage.Move",
	"buffer.ReadPage", "buffer.WritePage",
	"txlog.LogBegin", "txlog.LogCommit", "txlog.LogAbort",
	"storage.CommitBootstrap", "storage.Close",
}

func (n spanName) String() string { return spanNames[n] }

// Span is one timed call. Start and End are nanoseconds since the tracer's
// epoch; Parent is the ID of the span that was open when this one began
// (0 for a root).
type Span struct {
	ID, Parent int32
	Name       spanName
	Start, End int64
}

// openSpan is a span that has begun but not ended.
type openSpan struct {
	id, parent int32
	name       spanName
	start      int64
}

// Tracer keeps every span of one traced cycle in memory. Any goroutine may
// begin and end spans. Parentage comes from one "open" register rather than
// per-goroutine context: the engines call the clustering strategy only
// while they hold the structure guard exclusively (or from their single
// goroutine), so while a strategy span is open no other session can be
// inside the layers below it, and every backend call that begins meanwhile
// is its child.
type Tracer struct {
	epoch time.Time
	next  atomic.Int32
	open  atomic.Int32

	mu    sync.Mutex
	spans []Span

	// The wrappers the registry factories built for this tracer.
	strategy *tracedStrategy
	durable  *tracedDurable // nil over the memory backend
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the currently open one.
func (t *Tracer) begin(name spanName) openSpan {
	return openSpan{id: t.next.Add(1), parent: t.open.Load(), name: name, start: t.now()}
}

// end closes s and keeps it.
func (t *Tracer) end(s openSpan) {
	sp := Span{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// enter opens a span that spans begun before the matching exit nest under.
// Only one goroutine may hold an entered span at a time (see Tracer).
func (t *Tracer) enter(name spanName) openSpan {
	s := t.begin(name)
	t.open.Store(s.id)
	return s
}

// exit closes an entered span and reopens its parent.
func (t *Tracer) exit(s openSpan) {
	t.open.Store(s.parent)
	t.end(s)
}

// Spans returns the spans kept so far, in the order they ended.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// spanTotals is, per span name, the number of spans, their summed duration
// and their summed self time, in nanoseconds.
type spanTotals struct {
	count [numSpanNames]int64
	total [numSpanNames]int64
	self  [numSpanNames]int64
}

// totals aggregates spans. A span's self time is its duration minus the part
// of its interval that its children cover; overlapping children (sessions
// running side by side under one phase span) count once.
func totals(spans []Span) spanTotals {
	var st spanTotals
	var maxID int32
	for _, s := range spans {
		maxID = max(maxID, s.ID)
	}
	index := make([]int32, maxID+1) // span ID -> position + 1; 0 = not kept
	for i, s := range spans {
		index[s.ID] = int32(i) + 1
	}
	// Children grouped by parent, each group ordered by start.
	order := make([]int32, len(spans))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.Parent != y.Parent {
			return x.Parent < y.Parent
		}
		return x.Start < y.Start
	})
	covered := make([]int64, len(spans))
	for g := 0; g < len(order); {
		parent := spans[order[g]].Parent
		h := g
		for h < len(order) && spans[order[h]].Parent == parent {
			h++
		}
		if parent > 0 && parent <= maxID && index[parent] > 0 {
			pi := index[parent] - 1
			p := spans[pi]
			var sum, lo, hi int64
			open := false
			for _, ci := range order[g:h] {
				s, e := max(spans[ci].Start, p.Start), min(spans[ci].End, p.End)
				if e <= s {
					continue
				}
				switch {
				case !open:
					lo, hi, open = s, e, true
				case s > hi:
					sum += hi - lo
					lo, hi = s, e
				case e > hi:
					hi = e
				}
			}
			if open {
				sum += hi - lo
			}
			covered[pi] = sum
		}
		g = h
	}
	for i, s := range spans {
		d := s.End - s.Start
		st.count[s.Name]++
		st.total[s.Name] += d
		st.self[s.Name] += d - covered[i]
	}
	return st
}

// writeSpans writes spans gzip-compressed as tab-separated lines: id,
// parent, name, start and end in nanoseconds since the trace began.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	z, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return errors.Join(err, f.Close())
	}
	w := bufio.NewWriterSize(z, 1<<20)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	err = errors.Join(w.Flush(), z.Close())
	return errors.Join(err, f.Close())
}
