package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"oodb/internal/buffer"
	"oodb/internal/core"
	"oodb/internal/engine"
	"oodb/internal/lock"
	"oodb/internal/ocb"
	"oodb/internal/oracle"
	"oodb/internal/stats"
	"oodb/internal/storage"
	"oodb/internal/workload"
)

// benchScale is the database scale every workload runs at: 5% of the
// paper's 500 MB, about 118k OCB objects or the default OCT tier.
const benchScale = 0.05

// workloadDef is one named traffic mix. README.md says why each exists.
type workloadDef struct {
	name string
	// serial runs the discrete-event simulator (engine.New); otherwise the
	// concurrent engine runs one closed-loop session per CPU, zero think time.
	serial bool
	// durable runs on the file backend; each cycle ends with Close and
	// storage.RecoverDir on the data directory.
	durable bool
	// readOnly workloads must never read a deleted object.
	readOnly bool
	// cacheFits workloads size the buffer pool to hold the whole base, so a
	// run must never evict.
	cacheFits bool
	// rate is the transactions a run executes per second of --seconds, about
	// the workload's throughput on a 2-CPU runner when the benchmark was
	// defined. The work is fixed by seed and seconds, not
	// by the clock, so both sides of a comparison do the same transactions
	// and recovery replays the same history length.
	rate int
	// databases is how many databases one run builds, each from its own seed
	// derived from --seed. Averaging over several keeps a run's figures from
	// hanging on one database's few hottest objects, and makes set-up and
	// restart medians over several samples.
	databases int
	config    func(scale float64) engine.Config
}

// recoverReplays is how often a durable cycle replays its data directory.
const recoverReplays = 3

// cycles is the number of set-up, run, close and restart cycles in a run. A
// memory-backed database keeps nothing across Close, so its restart is a
// rebuild from the same seed: each database is built and run twice, and the
// second cycle must give the first one's answers.
func (w *workloadDef) cycles() int {
	if w.durable {
		return w.databases
	}
	return 2 * w.databases
}

// cycleSeed is the seed of cycle i of a run with seed seed.
func (w *workloadDef) cycleSeed(seed int64, i int) int64 {
	db := i
	if !w.durable {
		db = i / 2
	}
	return seed*64 + int64(db)
}

var workloads = []*workloadDef{
	{
		name: "ocb-read-hot", readOnly: true, cacheFits: true, rate: 135_000, databases: 6,
		config: func(scale float64) engine.Config {
			c := engine.DefaultConfig(scale)
			c.Workload = engine.WorkloadOCB
			c.OCB = ocb.Params{RefDist: ocb.DistZipf}
			c.Replacement = core.ReplContext
			// Twice the page count the object volume fills: every page of
			// the base stays resident (checked: no evictions).
			c.Buffers = 2 * c.DBBytes / c.PageSize
			return c
		},
	},
	{
		name: "ocb-write-cold", durable: true, rate: 12_000, databases: 5,
		config: func(scale float64) engine.Config {
			// DefaultConfig keeps the paper's 0.76% buffer-to-database ratio.
			c := engine.DefaultConfig(scale)
			c.Workload = engine.WorkloadOCB
			c.OCB = ocb.Params{RefDist: ocb.DistUniform, ReadWriteRatio: 2}
			c.Backend = "file"
			c.Fsync = "interval"
			return c
		},
	},
	{
		name: "oct-sim", serial: true, rate: 95_000, databases: 6,
		config: func(scale float64) engine.Config {
			// At scale 0.05 this is engine.TierDefault.
			c := engine.DefaultConfig(scale)
			c.Replacement = core.ReplContext
			c.Prefetch = core.PrefetchWithinDB
			return c
		},
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fsyncPolicy names the WAL sync policy a workload runs under.
func (w *workloadDef) fsyncPolicy() string {
	if w.durable {
		return w.config(benchScale).Fsync
	}
	return "none (memory backend)"
}

// cycle is what one set-up, run, close and restart of a workload measured.
type cycle struct {
	setup, run, close time.Duration
	recovers          []time.Duration // durable workloads: one per replay
	heapBytes         uint64

	sum summary

	// lat holds per-transaction wall latency in latUnit-sized units.
	lat     stats.Hist
	latUnit time.Duration
}

// summary is the part of either engine's results the benchmark reads.
type summary struct {
	completed, logical, notFound, logIOs int
	pool                                 buffer.Stats
	locks                                lock.Stats
	durable                              storage.DurableStats
	digest, finalDigest                  uint64
	objects, frames                      int

	// Serial simulator only.
	events      uint64
	simHit      float64
	simMeanResp float64

	// Durable workloads only.
	recovered *storage.RecoveredState
	dirBytes  int64
}

// runCycle builds the workload's database, runs txns transactions, closes
// the engine and restarts its durable state, checking every result. With a
// tracer it builds the traced wrappers instead and records spans.
func runCycle(w *workloadDef, scale float64, seed int64, txns int, dataDir string, t *Tracer) (cycle, error) {
	cfg := w.config(scale)
	cfg.Seed = seed
	cfg.Transactions = txns
	if w.durable {
		cfg.DataDir = dataDir
	}
	out := cycle{latUnit: time.Microsecond}
	if t != nil {
		activeTracer = t
		defer func() { activeTracer = nil }()
		cfg.ClusterStrategy = tracedAffinity
		cfg.Backend = tracedMemory
		if w.durable {
			cfg.Backend = tracedFile
		} else {
			cfg.DataDir = dataDir // required for any non-memory name; never created
		}
		// The engines generate inside their constructors; generating once
		// more on its own times that step apart from placement.
		if _, err := t.timed(spanGenerate, func() error { return generate(cfg) }); err != nil {
			return out, err
		}
	}

	runtime.GC()
	var (
		ser *engine.Engine
		con *engine.Concurrent
		err error
	)
	out.setup, err = t.timed(spanConstruct, func() (err error) {
		if w.serial {
			ser, err = engine.New(cfg)
		} else {
			con, err = engine.NewConcurrent(cfg, engine.ConcurrentOptions{Sessions: runtime.NumCPU()})
		}
		return err
	})
	if err != nil {
		return out, err
	}
	out.heapBytes = liveHeap()

	var closeFn func() error
	if w.serial {
		closeFn = ser.Close
		out.run, err = t.timed(spanRun, func() error { return runSerial(ser, &out) })
	} else {
		closeFn = con.Close
		out.run, err = t.timed(spanRun, func() error { return runConcurrent(con, &out) })
	}
	if err != nil {
		return out, errors.Join(err, closeFn())
	}
	if out.sum.completed != txns {
		return out, errors.Join(fmt.Errorf("completed %d of %d transactions", out.sum.completed, txns), closeFn())
	}
	if w.readOnly && out.sum.notFound != 0 {
		return out, errors.Join(fmt.Errorf("%d reads of deleted objects on a read-only workload", out.sum.notFound), closeFn())
	}
	if w.cacheFits && out.sum.pool.Evictions != 0 {
		return out, errors.Join(fmt.Errorf("%d evictions from a pool sized to hold the base", out.sum.pool.Evictions), closeFn())
	}
	if out.close, err = t.timed(spanClose, closeFn); err != nil {
		return out, err
	}
	if w.durable {
		err = recoverCheck(dataDir, &out, t)
	}
	return out, err
}

func generate(cfg engine.Config) error {
	if cfg.Workload == engine.WorkloadOCB {
		_, err := ocb.Generate(cfg.OCB, cfg.DBBytes, cfg.PageSize, cfg.Seed)
		return err
	}
	spec := workload.DefaultDBSpec(cfg.Density, cfg.DBBytes)
	spec.Seed = cfg.Seed
	_, err := workload.Generate(spec, cfg.PageSize)
	return err
}

// runSerial steps the simulator one completed transaction at a time, so the
// wall time of each step is that transaction's share of the simulator's
// work, then drains the calendar.
func runSerial(e *engine.Engine, out *cycle) error {
	out.latUnit = time.Nanosecond
	for {
		t0 := time.Now()
		n, err := e.RunN(1)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		out.lat.Record(int64(time.Since(t0)))
	}
	r, err := e.Run()
	if err != nil {
		return err
	}
	if err := oracle.CheckConservation(r); err != nil {
		return err
	}
	out.sum = summary{
		completed: r.Completed, logical: r.LogicalOps, notFound: r.NotFoundReads, logIOs: r.LogIOs,
		pool: r.Pool, locks: r.Locks, durable: r.Durability,
		digest: r.LogicalDigest, finalDigest: r.FinalStateDigest,
		objects: r.LiveObjects, frames: r.PoolCapacity,
		events: e.EventsExecuted(), simHit: r.HitRatio, simMeanResp: r.MeanResponse,
	}
	return nil
}

func runConcurrent(c *engine.Concurrent, out *cycle) error {
	r, err := c.Run()
	if err != nil {
		return err
	}
	if err := c.CheckInvariants(); err != nil {
		return err
	}
	switch {
	case r.ConservationViolations != 0:
		return fmt.Errorf("%d conservation violations", r.ConservationViolations)
	case r.PlacedObjects != r.LiveObjects:
		return fmt.Errorf("%d placed objects != %d live objects", r.PlacedObjects, r.LiveObjects)
	}
	out.lat = r.Latency
	out.sum = summary{
		completed: r.Completed, logical: r.LogicalOps, notFound: r.NotFoundReads, logIOs: r.LogIOs,
		pool: r.Pool, locks: r.Locks, durable: r.Durability,
		digest: r.LogicalDigest, finalDigest: r.FinalStateDigest,
		objects: r.LiveObjects, frames: r.PoolCapacity,
	}
	return nil
}

// recoverCheck replays the closed engine's data directory recoverReplays
// times, checking each time that recovery reproduces what the run
// committed, then removes the directory.
func recoverCheck(dir string, out *cycle, t *Tracer) error {
	out.sum.dirBytes = dirSize(dir)
	for i := 0; i < recoverReplays; i++ {
		if err := recoverOnce(dir, out, t); err != nil {
			return errors.Join(err, os.RemoveAll(dir))
		}
	}
	return os.RemoveAll(dir)
}

func recoverOnce(dir string, out *cycle, t *Tracer) error {
	var st *storage.RecoveredState
	d, err := t.timed(spanRecover, func() (err error) {
		st, err = storage.RecoverDir(dir, nil)
		return err
	})
	if err != nil {
		return fmt.Errorf("recovering %s: %w", dir, err)
	}
	out.recovers = append(out.recovers, d)
	out.sum.recovered = st
	switch {
	case int64(st.Committed) != out.sum.durable.Committed:
		err = fmt.Errorf("recovered %d committed transactions, the run committed %d", st.Committed, out.sum.durable.Committed)
	case st.Objects != out.sum.objects:
		err = fmt.Errorf("recovered %d objects, the run ended with %d", st.Objects, out.sum.objects)
	case st.Digest != st.CommitDigest:
		err = fmt.Errorf("recovered digest %x != committed digest %x", st.Digest, st.CommitDigest)
	}
	return err
}

func dirSize(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir) // a missing directory has size 0
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && !fi.IsDir() {
			n += fi.Size()
		}
	}
	return n
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// timed runs f, returning its wall time; with a tracer it also records f as
// a span that the layer calls made inside f nest under. Nil-safe.
func (t *Tracer) timed(name spanName, f func() error) (time.Duration, error) {
	var s openSpan
	if t != nil {
		s = t.enter(name)
	}
	start := time.Now()
	err := f()
	d := time.Since(start)
	if t != nil {
		t.exit(s)
	}
	return d, err
}

// quantileUS returns quantile q of a latency histogram in microseconds. The
// histogram answers with a bucket's representative value; the sample's
// position inside that bucket is interpolated linearly, so a median that
// sits within one bucket still reads as a measured fraction instead of the
// same whole number on every run.
func quantileUS(h *stats.Hist, unit time.Duration, q float64) float64 {
	if h.N() == 0 {
		return 0
	}
	v := h.Quantile(q)
	// The bucket's share of the distribution: [qlo, qhi) is where
	// Quantile answers v. Quantile steps at multiples of 1/N, so 64
	// bisection steps pin both edges exactly.
	lo, hi := 0.0, q
	for i := 0; i < 64; i++ {
		m := (lo + hi) / 2
		if h.Quantile(m) < v {
			lo = m
		} else {
			hi = m
		}
	}
	qlo := hi
	lo, hi = q, 1
	for i := 0; i < 64; i++ {
		m := (lo + hi) / 2
		if h.Quantile(m) > v {
			hi = m
		} else {
			lo = m
		}
	}
	qhi := lo
	// Bucket bounds: values below 32 have unit buckets; above, each power
	// of two splits into 32 (stats.Hist), and v is the bucket midpoint.
	width := int64(1)
	if v >= 32 {
		width = int64(1) << (bits.Len64(uint64(v)) - 1 - 5)
	}
	base := float64(v - width/2)
	frac := 0.5
	if qhi > qlo {
		frac = (q - qlo) / (qhi - qlo)
	}
	val := base + frac*float64(width)
	val = min(max(val, float64(h.Min())), float64(h.Max())+1)
	return val * float64(unit) / float64(time.Microsecond)
}

func cycleDir(root, workload string, i int) string {
	return filepath.Join(root, "data", fmt.Sprintf("%s-%d-%d", workload, os.Getpid(), i))
}
