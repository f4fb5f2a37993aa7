package engine

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"oodb/internal/buffer"
	"oodb/internal/core"
	"oodb/internal/lock"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/ocb"
	"oodb/internal/sim"
	"oodb/internal/storage"
	"oodb/internal/trace"
	"oodb/internal/txlog"
	"oodb/internal/workload"
)

// Engine is one simulated DBMS server plus its client workstations. It owns
// the timed layer (stations, users, transactions); all functional work goes
// through the AccessLayer seam.
type Engine struct {
	cfg Config

	sim     *sim.Sim
	db      *workload.Database // OCT database; nil under the OCB workload
	ocbBase *ocb.Base          // OCB object base; nil under the OCT workload
	graph   *model.Graph
	store   storage.Backend
	durable storage.Durable // non-nil iff the backend is persistent
	pool    *buffer.Pool
	clust   core.ClusterStrategy
	tuner   core.PolicyTuner // clust's run-time tuning hook; nil if untunable
	pf      core.PrefetchStrategy
	log     *txlog.Manager
	gen     workload.Source
	access  AccessLayer
	rec     obs.Recorder // nil = uninstrumented

	cpu     *sim.Station
	disks   []*sim.Station
	logDisk *sim.Station
	locks   *lock.Manager // nil when Config.Locking is false

	wrkRNG *rand.Rand // workload choices
	txnSeq int

	// adapt drives the phased-R/W and adaptive-clustering extensions; nil
	// when neither is configured.
	adapt *adaptiveState

	// Per-user think/submit state, indexed by user number. Explicit data
	// instead of a closure chain, so a checkpoint can describe every pending
	// user wake (the only calendar events alive at a quiescent point).
	users   []UserState
	think   *rand.Rand
	started bool

	// Trace record/replay on the logical transaction boundary.
	record *trace.Writer
	replay *trace.Reader

	metrics   Metrics
	issued    int
	completed int
	stopped   bool
}

// New builds an engine: it generates the logical database, then constructs
// the physical database by replaying the creation sequences through the
// configured clustering policy (construction I/Os are not timed and all
// statistics are reset afterwards — the measured run starts on the database
// that policy would have built).
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := sim.New(cfg.Seed)

	// Either workload family yields a (graph, store) pair; everything below
	// the workload seam is family-agnostic.
	var (
		db    *workload.Database
		base  *ocb.Base
		graph *model.Graph
		store *storage.Manager
	)
	if cfg.Workload == WorkloadOCB {
		b, err := ocb.Generate(cfg.OCB, cfg.DBBytes, cfg.PageSize, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("engine: generating OCB object base: %w", err)
		}
		base, graph, store = b, b.Graph, b.Store
	} else {
		spec := workload.DefaultDBSpec(cfg.Density, cfg.DBBytes)
		spec.Seed = cfg.Seed
		d, err := workload.Generate(spec, cfg.PageSize)
		if err != nil {
			return nil, fmt.Errorf("engine: generating database: %w", err)
		}
		db, graph, store = d, d.Graph, d.Store
	}

	// Replacement policies come from the name registry; the Table 4.1 enum
	// maps onto registered names and Config.ReplacementName may select any
	// other registered policy (e.g. "clock") directly.
	replName := cfg.ReplacementName
	if replName == "" {
		switch cfg.Replacement {
		case core.ReplLRU:
			replName = "lru"
		case core.ReplRandom:
			replName = "random"
		case core.ReplContext:
			replName = "context-sensitive"
		default:
			return nil, fmt.Errorf("engine: unknown replacement policy %v", cfg.Replacement)
		}
	}
	policy, err := buffer.NewPolicyByName(replName, buffer.PolicyConfig{
		Frames: cfg.Buffers,
		// Lazily created so deterministic replays are unaffected unless a
		// stochastic policy actually draws from it.
		RNG: func() *rand.Rand { return s.Stream("random-replacement") },
	})
	if err != nil {
		return nil, err
	}
	pool := buffer.NewPool(cfg.Buffers, policy)
	pool.SetRecorder(cfg.Recorder)
	store.SetRecorder(cfg.Recorder)

	// The storage backend wraps the in-memory manager: "memory" is the
	// identity wrapping, "file" journals every placement to a WAL and bears
	// real page I/O. Everything downstream sees only storage.Backend.
	fsync, err := storage.ParseFsync(cfg.Fsync)
	if err != nil {
		return nil, err
	}
	bk, err := storage.NewBackendByName(cfg.Backend, store, storage.BackendOptions{
		Dir: cfg.DataDir, Fsync: fsync, Recorder: cfg.Recorder,
	})
	if err != nil {
		return nil, err
	}

	// Clustering strategies come from their own registry; "affinity" is the
	// paper's algorithm and the default.
	stratName := cfg.ClusterStrategy
	if stratName == "" {
		stratName = "affinity"
	}
	clust, err := core.NewClusterStrategy(stratName, core.ClusterSeam{
		Graph: graph, Store: bk, Pool: pool,
		Policy: cfg.Cluster, Split: cfg.Split,
		Hints: cfg.Hints, Hint: cfg.HintKind,
		PageSize:            cfg.PageSize,
		NoSiblingCandidates: cfg.NoSiblingCandidates,
		Recorder:            cfg.Recorder,
	})
	if err != nil {
		return nil, err
	}

	pf := &core.Prefetcher{
		Graph: graph, Store: bk, Pool: pool,
		Policy: cfg.Prefetch, Hints: cfg.Hints, Hint: cfg.HintKind,
	}
	pf.SetRecorder(cfg.Recorder)

	log := txlog.NewManager(cfg.LogBufBytes)
	log.SetRecorder(cfg.Recorder)

	e := &Engine{
		cfg: cfg, sim: s, db: db, ocbBase: base, graph: graph, store: bk,
		pool: pool, clust: clust, pf: pf,
		log:    log,
		rec:    cfg.Recorder,
		wrkRNG: s.Stream("workload"),
	}
	// A persistent backend is discovered by capability, the same pattern as
	// the cluster strategies' PolicyTuner: the pool gets real page I/O, the
	// txlog gets durable transaction boundaries, the memory path pays nothing.
	if d, ok := bk.(storage.Durable); ok {
		e.durable = d
		pool.SetPageIO(d)
		log.SetDurable(d)
	}
	e.tuner, _ = clust.(core.PolicyTuner)
	if base != nil {
		e.gen = ocb.NewGenerator(base, cfg.OCB, e.wrkRNG)
	} else {
		e.gen = workload.NewGenerator(db, workload.DefaultParams(cfg.Density, cfg.ReadWriteRatio), e.wrkRNG)
	}
	// The context-sensitive policy is the one that consumes per-read
	// structural boosts; other policies ignore them, so the access layer
	// skips computing the boost set entirely.
	_, boostContext := policy.(*core.ContextPolicy)
	// Dynamic clustering strategies consume the access-pattern feed; the
	// capability is discovered once, like PolicyTuner and storage.Durable.
	obsv, _ := clust.(core.AccessObserver)
	e.access = &stack{
		graph: graph, store: bk, pool: pool,
		clust: clust, pf: pf, log: log, gen: e.gen,
		rec:          cfg.Recorder,
		obsv:         obsv,
		boostContext: boostContext,
		boostLimit:   cfg.ContextBoostLimit,
		digest:       digestOffset,
	}
	if base != nil {
		p := cfg.OCB.WithDefaults()
		st := e.access.(*stack)
		st.ocbDepth = p.Depth
		st.sizeBytes = ocbSizeTable(p.BaseSize)
	}
	e.metrics.init(cfg)

	e.cpu = sim.NewStation(s, "cpu", 1)
	for d := 0; d < cfg.Disks; d++ {
		e.disks = append(e.disks, sim.NewStation(s, fmt.Sprintf("disk%d", d), 1))
	}
	e.logDisk = sim.NewStation(s, "logdisk", 1)

	if cfg.Locking {
		e.locks = lock.NewManager()
		e.locks.SetRecorder(cfg.Recorder)
	}
	if len(cfg.PhasedRW) > 0 || cfg.AdaptiveClustering {
		e.adapt = newAdaptiveState(cfg)
	}

	if cfg.Record != nil {
		w, err := trace.NewWriter(cfg.Record)
		if err != nil {
			return nil, err
		}
		e.record = w
	}
	if cfg.Replay != nil {
		r, err := trace.NewReader(cfg.Replay)
		if err != nil {
			return nil, err
		}
		e.replay = r
	}

	if err := e.constructDatabase(); err != nil {
		return nil, err
	}
	if e.durable != nil {
		// The construction placements were journaled under the bootstrap
		// pseudo-transaction; commit them durably before the run starts so
		// recovery always has the baseline every run transaction builds on.
		if err := e.durable.CommitBootstrap(); err != nil {
			return nil, fmt.Errorf("engine: committing construction bootstrap: %w", err)
		}
	}
	return e, nil
}

// Close flushes the buffer pool's dirty pages and releases the persistent
// backend's files; a memory-backed engine closes as a no-op. Idempotent.
func (e *Engine) Close() error {
	if e.durable == nil {
		return nil
	}
	d := e.durable
	e.durable = nil
	flushErr := e.pool.FlushDirty()
	return errors.Join(flushErr, d.Close())
}

// constructDatabase replays the interleaved creation order through the
// clustering policy, then resets every statistic so the measured run starts
// clean. The buffer pool's state is kept: the run begins with the pool warm,
// as a long-lived server's would be. The OCB base carries its own creation
// order (references always point backwards in it); the OCT database
// interleaves its creation sequences from a dedicated stream.
func (e *Engine) constructDatabase() error {
	var order []model.ObjectID
	if e.ocbBase != nil {
		order = e.ocbBase.Order
	} else {
		order = e.db.ConstructionOrder(e.sim.Stream("construction"), 4)
	}
	for _, id := range order {
		o := e.graph.Object(id)
		if o == nil {
			return fmt.Errorf("engine: construction order references unknown object %d", id)
		}
		if _, err := e.clust.PlaceNew(o); err != nil {
			return fmt.Errorf("engine: constructing database: placing %d: %w", id, err)
		}
	}
	if e.store.NumPlaced() != e.graph.NumObjects() {
		return fmt.Errorf("engine: construction placed %d of %d objects",
			e.store.NumPlaced(), e.graph.NumObjects())
	}
	e.pool.ResetStats()
	e.clust.ResetStats()
	e.log.ResetStats()
	return nil
}

// Run simulates until the configured number of transactions has completed
// and returns the results.
func (e *Engine) Run() (Results, error) {
	e.start()
	e.sim.RunAll()
	return e.finish()
}

// RunN steps the simulation until n more transactions complete (or the
// event calendar drains, whichever is first) and returns how many
// completed. It leaves the engine mid-run: the macro-benchmark and the
// future server loop use it to drive bounded slices of work; call Run or
// RunN again to continue.
func (e *Engine) RunN(n int) (int, error) {
	e.start()
	target := e.completed + n
	for e.completed < target && e.sim.Step() {
	}
	if e.metrics.err != nil {
		return 0, e.metrics.err
	}
	return n - (target - e.completed), nil
}

// EventsExecuted returns the number of kernel events executed so far.
func (e *Engine) EventsExecuted() uint64 { return e.sim.Executed() }

// finish flushes the trace recorder and renders results.
func (e *Engine) finish() (Results, error) {
	if e.record != nil {
		if err := e.record.Flush(); err != nil && e.metrics.err == nil {
			e.metrics.err = fmt.Errorf("engine: flushing trace: %w", err)
		}
	}
	if e.metrics.err != nil {
		return Results{}, e.metrics.err
	}
	return e.results(), nil
}

// start schedules the initial user wakes. It is idempotent so resumed
// engines (whose users are already mid-session) skip it.
func (e *Engine) start() {
	if e.started {
		return
	}
	e.started = true
	e.think = e.sim.Stream("think")
	e.users = make([]UserState, e.cfg.Users)
	for u := range e.users {
		e.scheduleWake(u, sim.Exp(e.think, e.thinkMean()))
	}
}

// thinkMean is the current mean think time. During a configured flash crowd
// — transactions [FlashAt, FlashAt+FlashLen) — every user's think time
// collapses by FlashFactor, modeling the whole population converging on the
// system at once. The draw count is unchanged (one exponential per wake), so
// a run with no flash configured is byte-identical to the pre-flash engine.
func (e *Engine) thinkMean() float64 {
	if e.cfg.FlashFactor > 1 && e.cfg.FlashLen > 0 &&
		e.issued >= e.cfg.FlashAt && e.issued < e.cfg.FlashAt+e.cfg.FlashLen {
		return e.cfg.ThinkTime / e.cfg.FlashFactor
	}
	return e.cfg.ThinkTime
}

// scheduleWake schedules user u's next wake after delay, recording the
// event's fire time and sequence number so a checkpoint can re-create it.
func (e *Engine) scheduleWake(u int, delay sim.Time) {
	if delay < 0 {
		delay = 0
	}
	t := e.sim.Now() + delay
	e.sim.At(t, func() { e.wakeUser(u) })
	e.users[u].NextWake = t
	e.users[u].WakeSeq = e.sim.LastSeq()
	e.users[u].Waiting = true
}

// wakeUser runs one step of a user's think/submit loop. Sessions group 5–20
// transactions; the session boundary draws a fresh session length, matching
// the paper's session model.
func (e *Engine) wakeUser(u int) {
	e.users[u].Waiting = false
	if e.stopped {
		return
	}
	if e.users[u].Remaining == 0 {
		e.users[u].Remaining = e.gen.SessionLength()
	}
	if e.issued >= e.cfg.Transactions+e.cfg.Warmup {
		e.stopped = true
		return
	}
	e.issued++
	e.users[u].Remaining--
	e.startTxn(func() {
		e.completed++
		e.scheduleWake(u, sim.Exp(e.think, e.thinkMean()))
	})
}

// nextTxn draws the next transaction request: from the replay stream when
// one is configured, otherwise from the generator (teeing into the trace
// recorder when recording). Replayed scan lists are copied out of the
// reader's scratch buffer — the request outlives this call when the
// transaction queues on locks.
func (e *Engine) nextTxn() (workload.Op, error) {
	if e.replay != nil {
		var t workload.Op
		switch err := e.replay.Next(&t); {
		case errors.Is(err, io.EOF):
			return t, fmt.Errorf("engine: trace exhausted after %d transactions (run needs %d)",
				e.replay.Count(), e.cfg.Transactions+e.cfg.Warmup)
		case err != nil:
			return t, err
		}
		if len(t.Targets) > 0 {
			t.Targets = append([]model.ObjectID(nil), t.Targets...)
		}
		return t, nil
	}
	t := e.gen.Next()
	if e.record != nil {
		if err := e.record.Write(t); err != nil {
			return t, fmt.Errorf("engine: recording trace: %w", err)
		}
	}
	return t, nil
}

// startTxn executes one transaction: the functional layer runs atomically
// now (determining the logical operations and the physical I/O program),
// then the timed layer plays CPU service followed by each physical I/O
// through the disk queues; done fires when the transaction completes.
func (e *Engine) startTxn(done func()) {
	t0 := e.sim.Now()
	txn := e.txnSeq
	e.txnSeq++
	if e.adapt != nil {
		if rw := e.adapt.phaseRatio(txn); rw > 0 {
			if !e.gen.SetReadWriteRatio(rw) {
				// The source cannot honor the requested mix (e.g. a read-only
				// OCB stream); surface the refusal instead of silently
				// pretending the phase took effect.
				e.metrics.ratioIgnored++
			}
		}
	}
	req, err := e.nextTxn()
	if err != nil {
		e.fail(err)
		return
	}
	if e.adapt != nil && e.cfg.AdaptiveClustering && e.tuner != nil {
		if observed := e.adapt.observe(req.Kind.IsWrite()); observed >= 0 {
			if pol := e.adapt.policyFor(observed); pol != e.tuner.CurrentPolicy() {
				e.tuner.SetPolicy(pol)
				e.adapt.Switches++
			}
		}
	}
	if e.rec != nil {
		e.rec.Count(obs.EngineTxn, 1)
	}

	// Concurrency control first: the transaction queues on conflicting
	// object locks, and that queueing delay is part of its response time.
	e.withLocks(txn, lockSet(req), func() {
		e.runLocked(txn, req, t0, done)
	})
}

// runLocked executes a transaction that holds its locks.
func (e *Engine) runLocked(txn int, req workload.Op, t0 sim.Time, done func()) {
	if err := e.log.Begin(txn); err != nil {
		e.fail(err)
		return
	}
	res, err := e.access.Execute(txn, req)
	if err2 := e.log.End(txn); err == nil {
		err = err2
	}
	if err != nil {
		e.fail(err)
		return
	}

	ios := res.IOs
	e.metrics.notFound += res.NotFound
	e.metrics.note(req.Kind, res.Logical, ios)
	// Background prefetch I/Os load the disks (and are accounted) but do
	// not serialize into this transaction's response path. Copied because
	// res.Background is scratch-backed and the disk callbacks outlive it.
	bg := append([]core.PhysIO(nil), res.Background...)
	e.metrics.noteBackground(bg)
	if e.rec != nil && len(bg) > 0 {
		e.rec.Count(obs.EngineBackgroundIO, len(bg))
	}
	for _, io := range bg {
		e.diskFor(io).Request(e.cfg.DiskServiceTime, nil)
	}

	cpuTime := e.cfg.CPUPerLogicalOp*float64(res.Logical) + e.cfg.CPUPerPhysIO*float64(len(ios)+len(bg))
	e.cpu.Request(cpuTime, func() {
		e.playIOs(ios, 0, func() {
			if e.locks != nil {
				e.locks.ReleaseAll(txn)
			}
			resp := e.sim.Now() - t0
			if e.cfg.Trace != nil && !e.metrics.inWarmup() {
				fmt.Fprintf(e.cfg.Trace, "%d,%s,%d,%.6f\n", txn, req.Kind, req.Target, resp)
			}
			e.metrics.complete(req.Kind, resp)
			done()
		})
	})
}

func (e *Engine) fail(err error) {
	if e.metrics.err == nil {
		e.metrics.err = err
	}
	e.stopped = true
}

// diskFor routes an I/O: data pages hash across the data disks, log writes
// go to the dedicated log disk.
func (e *Engine) diskFor(io core.PhysIO) *sim.Station {
	if io.Log {
		return e.logDisk
	}
	return e.disks[int(io.Page)%len(e.disks)]
}

// playIOs sends each physical I/O to its disk in order.
func (e *Engine) playIOs(ios []core.PhysIO, idx int, done func()) {
	if idx >= len(ios) {
		done()
		return
	}
	e.diskFor(ios[idx]).Request(e.cfg.DiskServiceTime, func() { e.playIOs(ios, idx+1, done) })
}
