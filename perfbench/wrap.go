package main

import (
	"fmt"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/storage"
)

// The traced run reaches the layers through their registries: the engine
// builds "perfbench-file" or "perfbench-memory" as its storage backend and
// "perfbench-affinity" as its clustering strategy, and each factory wraps
// the real component in a type that times the calls crossing the seam.
// Because the file backend is also the buffer pool's PageIO and the log's
// TxnLog, one backend wrapper sees page faults, write-backs and commits.
const (
	tracedMemory   = "perfbench-memory"
	tracedFile     = "perfbench-file"
	tracedAffinity = "perfbench-affinity"
)

// activeTracer receives the wrappers the factories build. runCycle sets it
// around the traced cycle's construction, on the goroutine that constructs.
var activeTracer *Tracer

func init() {
	storage.RegisterBackend(tracedMemory, tracedBackendFactory("memory"))
	storage.RegisterBackend(tracedFile, tracedBackendFactory("file"))
	core.RegisterClusterStrategy(tracedAffinity, func(seam core.ClusterSeam) core.ClusterStrategy {
		inner, err := core.NewClusterStrategy("affinity", seam)
		if err == nil {
			var w core.ClusterStrategy
			if w, err = wrapStrategy(inner, activeTracer); err == nil {
				return w
			}
		}
		// The factory cannot return an error; affinity is always registered
		// and always wrappable (wrap_test.go), so this is a bug.
		panic(err)
	})
}

func tracedBackendFactory(inner string) storage.BackendFactory {
	return func(m *storage.Manager, opt storage.BackendOptions) (storage.Backend, error) {
		if inner == "memory" {
			opt.Dir = "" // the engine insists on a directory for any non-memory name
		}
		bk, err := storage.NewBackendByName(inner, m, opt)
		if err != nil {
			return nil, err
		}
		return wrapBackend(bk, activeTracer), nil
	}
}

// wrapBackend wraps bk so that it exposes exactly bk's capabilities: a
// storage.Durable stays Durable (the engine then wires it as PageIO and
// TxnLog), a plain Backend stays plain.
func wrapBackend(bk storage.Backend, t *Tracer) storage.Backend {
	b := &tracedBackend{Backend: bk, t: t}
	if d, ok := bk.(storage.Durable); ok {
		t.durable = &tracedDurable{tracedBackend: b, d: d}
		return t.durable
	}
	return b
}

// tracedBackend times the mutations; each one also appends a WAL record on
// the file backend.
type tracedBackend struct {
	storage.Backend
	t *Tracer
}

func (b *tracedBackend) Place(obj model.ObjectID, pg storage.PageID) error {
	s := b.t.begin(spanPlace)
	err := b.Backend.Place(obj, pg)
	b.t.end(s)
	return err
}

func (b *tracedBackend) Remove(obj model.ObjectID) error {
	s := b.t.begin(spanRemove)
	err := b.Backend.Remove(obj)
	b.t.end(s)
	return err
}

func (b *tracedBackend) Move(obj model.ObjectID, pg storage.PageID) error {
	s := b.t.begin(spanMove)
	err := b.Backend.Move(obj, pg)
	b.t.end(s)
	return err
}

// tracedDurable adds the Durable surface: page I/O, transaction boundaries
// and lifecycle.
type tracedDurable struct {
	*tracedBackend
	d storage.Durable

	// boot holds the physical counters just after the bootstrap commit, so
	// per-transaction ratios cover the run alone.
	boot storage.DurableStats
}

var _ storage.Durable = (*tracedDurable)(nil)

func (w *tracedDurable) ReadPage(pg storage.PageID) error {
	s := w.t.begin(spanReadPage)
	err := w.d.ReadPage(pg)
	w.t.end(s)
	return err
}

func (w *tracedDurable) WritePage(pg storage.PageID) error {
	s := w.t.begin(spanWritePage)
	err := w.d.WritePage(pg)
	w.t.end(s)
	return err
}

func (w *tracedDurable) LogBegin(txn int) error {
	s := w.t.begin(spanLogBegin)
	err := w.d.LogBegin(txn)
	w.t.end(s)
	return err
}

func (w *tracedDurable) LogCommit(txn int) error {
	s := w.t.begin(spanLogCommit)
	err := w.d.LogCommit(txn)
	w.t.end(s)
	return err
}

func (w *tracedDurable) LogAbort(txn int) error {
	s := w.t.begin(spanLogAbort)
	err := w.d.LogAbort(txn)
	w.t.end(s)
	return err
}

func (w *tracedDurable) CommitBootstrap() error {
	s := w.t.begin(spanBootstrap)
	err := w.d.CommitBootstrap()
	w.t.end(s)
	w.boot = w.d.DurableStats()
	return err
}

func (w *tracedDurable) Close() error {
	s := w.t.begin(spanDurableClose)
	err := w.d.Close()
	w.t.end(s)
	return err
}

func (w *tracedDurable) Checkpoint() error                  { return w.d.Checkpoint() }
func (w *tracedDurable) Committed() int                     { return w.d.Committed() }
func (w *tracedDurable) DurableStats() storage.DurableStats { return w.d.DurableStats() }

// wrapStrategy wraps a clustering strategy so that it exposes exactly the
// optional capabilities the engine probes for on the inner one:
// core.PolicyTuner and core.AccessObserver (and the checkpoint surface,
// which every registered strategy has).
func wrapStrategy(inner core.ClusterStrategy, t *Tracer) (core.ClusterStrategy, error) {
	st, ok := inner.(core.StatefulClusterStrategy)
	if !ok {
		return nil, fmt.Errorf("perfbench: strategy %q has no checkpoint surface", inner.Name())
	}
	base := &tracedStrategy{StatefulClusterStrategy: st, t: t}
	t.strategy = base
	tuner, isTuner := inner.(core.PolicyTuner)
	obsv, isObserver := inner.(core.AccessObserver)
	switch {
	case isTuner && isObserver:
		return nil, fmt.Errorf("perfbench: strategy %q is both PolicyTuner and AccessObserver; add a wrapper for that pair", inner.Name())
	case isTuner:
		return &tracedTuner{base, tuner}, nil
	case isObserver:
		return &tracedObserver{base, obsv}, nil
	}
	return base, nil
}

// tracedStrategy times PlaceNew and Recluster. Backend calls made inside them
// become their child spans, so their self time is the clustering work alone.
type tracedStrategy struct {
	core.StatefulClusterStrategy
	t *Tracer

	// build holds the statistics of database construction, read just before
	// the engine's construction-time ResetStats zeroes them.
	build  core.ClusterStats
	resets int
}

func (s *tracedStrategy) PlaceNew(o *model.Object) (core.Placement, error) {
	sp := s.t.enter(spanPlaceNew)
	p, err := s.StatefulClusterStrategy.PlaceNew(o)
	s.t.exit(sp)
	return p, err
}

func (s *tracedStrategy) Recluster(o *model.Object) (core.Placement, error) {
	sp := s.t.enter(spanRecluster)
	p, err := s.StatefulClusterStrategy.Recluster(o)
	s.t.exit(sp)
	return p, err
}

func (s *tracedStrategy) ResetStats() {
	if s.resets == 0 {
		s.build = s.StatefulClusterStrategy.Stats()
	}
	s.resets++
	s.StatefulClusterStrategy.ResetStats()
}

type tracedTuner struct {
	*tracedStrategy
	core.PolicyTuner
}

type tracedObserver struct {
	*tracedStrategy
	core.AccessObserver
}
