// Command perfbench is the repository's wall-clock benchmark. It runs one
// named workload from database build through run, close and recovery, checks
// every result, and prints the metrics BENCHMARK.json names as the last line
// of its output:
//
//	go build -o perfbench . && ./perfbench --workload ocb-read-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it runs a traced cycle between two untraced ones of the same work
// and reports the per-layer metrics. README.md describes the workloads and what
// each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// commit is set at build time by run.sh; "unknown" outside a git checkout.
var commit = "unknown"

// heldOutOffset moves a --held-out seed into a range that tuning runs, which
// use small seeds, never touch.
const heldOutOffset = 1 << 40

func main() {
	var (
		name    = flag.String("workload", "", "workload name (ocb-read-hot, ocb-write-cold, oct-sim)")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "run length: the run executes seconds × the workload's nominal rate transactions")
		trace   = flag.Int("trace", 0, "1 runs a traced cycle and reports per-layer metrics")
		heldOut = flag.Bool("held-out", false, "use the held-out seed for --seed, for verifying a claim on inputs not used while tuning")
		outDir  = flag.String("out", ".bench_build", "directory for data directories and span files")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	s := *seed
	if *heldOut {
		s += heldOutOffset
	}
	per := (w.rate**seconds + w.cycles() - 1) / w.cycles()
	res := bench(w, benchScale, s, per, *trace == 1, *outDir)
	res.Env.Seconds, res.Env.HeldOut = *seconds, *heldOut
	if res.Err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", res.Err)
	}
	env, err := json.Marshal(map[string]any{"env": res.Env})
	if err == nil {
		fmt.Println(string(env))
		var line []byte
		if line, err = json.Marshal(res.Line); err == nil {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: printing the result:", err)
		os.Exit(1)
	}
	if !res.Line.Correct {
		os.Exit(1)
	}
}

// metric is one reported value and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of output, the benchmark's result.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env records the machine and the inputs behind a result.
type env struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	HeldOut        bool    `json:"held_out"`
	Seconds        int     `json:"seconds"`
	Trace          bool    `json:"trace"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NumCPU         int     `json:"nproc"`
	GoVersion      string  `json:"go_version"`
	Commit         string  `json:"commit"`
	Fsync          string  `json:"fsync"`
	Engine         string  `json:"engine"`
	Sessions       int     `json:"sessions"`
	Scale          float64 `json:"scale"`
	DBBytes        int     `json:"db_bytes"`
	Objects        int     `json:"objects"`
	BufferFrames   int     `json:"buffer_frames"`
	Databases      int     `json:"databases"`
	Cycles         int     `json:"cycles"`
	TxnsPerCycle   int     `json:"txns_per_cycle"`
	LatencySamples int64   `json:"latency_samples"`
	SpanFile       string  `json:"span_file,omitempty"`
	Spans          int     `json:"spans,omitempty"`
}

type benchResult struct {
	Line resultLine
	Env  env
	Err  error
}

// bench runs per transactions in each cycle of one workload and assembles
// its result. A failure anywhere marks the whole run incorrect and every
// attempted transaction failed.
func bench(w *workloadDef, scale float64, seed int64, per int, traced bool, outDir string) benchResult {
	cycles := w.cycles()
	if traced {
		cycles = 3 // a traced cycle between two untraced ones of the same work
	}
	databases := w.databases
	if traced {
		databases = 1
	}
	cfg := w.config(scale)
	r := benchResult{Env: env{
		Workload: w.name, Seed: seed, Trace: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: buildCommit(), Fsync: w.fsyncPolicy(),
		Engine: "concurrent", Sessions: runtime.NumCPU(),
		Scale: scale, DBBytes: cfg.DBBytes, BufferFrames: cfg.Buffers,
		Databases: databases, Cycles: cycles, TxnsPerCycle: per,
	}}
	if w.serial {
		r.Env.Engine, r.Env.Sessions = "serial simulator", 1
	}
	r.Line = resultLine{Attempted: per * cycles, Metrics: map[string]metric{}}

	var err error
	if traced {
		err = benchTraced(w, scale, seed, per, outDir, &r)
	} else {
		err = benchUntraced(w, scale, seed, per, outDir, &r)
	}
	r.Err = err
	r.Line.Correct = err == nil
	if err != nil {
		r.Line.Failed = r.Line.Attempted
	}
	return r
}

func benchUntraced(w *workloadDef, scale float64, seed int64, per int, outDir string, r *benchResult) error {
	var (
		cs                                   []cycle
		setup, rate, recover, heap, p50, p99 []float64
		samples                              int64
	)
	for i := 0; i < w.cycles(); i++ {
		c, err := runCycle(w, scale, w.cycleSeed(seed, i), per, cycleDir(outDir, w.name, i), nil)
		if err != nil {
			return fmt.Errorf("%s cycle %d: %w", w.name, i, err)
		}
		restart := !w.durable && i%2 == 1
		if restart {
			// The second build of a memory-backed database is its restart.
			if err := sameAnswers(w, cs[i-1], c); err != nil {
				return err
			}
			recover = append(recover, c.setup.Seconds())
		} else {
			setup = append(setup, c.setup.Seconds())
		}
		for _, d := range c.recovers {
			recover = append(recover, d.Seconds())
		}
		rate = append(rate, float64(c.sum.completed)/c.run.Seconds())
		heap = append(heap, float64(c.heapBytes)/(1<<20))
		p50 = append(p50, quantileUS(&c.lat, c.latUnit, 0.50))
		p99 = append(p99, quantileUS(&c.lat, c.latUnit, 0.99))
		samples += c.lat.N()
		cs = append(cs, c)
	}
	m := r.Line.Metrics
	m["setup_s"] = metric{median(setup), "s"}
	m["txn_per_s"] = metric{median(rate), "1/s"}
	m["p50_us"] = metric{median(p50), "us"}
	m["p99_us"] = metric{median(p99), "us"}
	m["recover_s"] = metric{median(recover), "s"}
	m["heap_mb"] = metric{median(heap), "MB"}
	r.Env.Objects = cs[0].sum.objects
	r.Env.BufferFrames = cs[0].sum.frames
	r.Env.LatencySamples = samples
	return nil
}

// sameAnswers checks that a memory-backed workload's rebuilt database gives
// the same answers: the read-only and serial runs are deterministic for a
// seed, so their digests, and the simulator's simulated figures, repeat
// exactly.
func sameAnswers(w *workloadDef, prev, c cycle) error {
	if w.durable {
		return nil
	}
	a, b := prev.sum, c.sum
	if a.digest != b.digest || a.finalDigest != b.finalDigest {
		return fmt.Errorf("%s: restart changed the answers: digests %x/%x, then %x/%x",
			w.name, a.digest, a.finalDigest, b.digest, b.finalDigest)
	}
	if a.simHit != b.simHit || a.simMeanResp != b.simMeanResp {
		return fmt.Errorf("%s: simulated hit ratio and mean response %v/%v, then %v/%v",
			w.name, a.simHit, a.simMeanResp, b.simHit, b.simMeanResp)
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func buildCommit() string {
	if commit != "unknown" && commit != "" {
		return commit
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func benchTraced(w *workloadDef, scale float64, seed int64, per int, outDir string, r *benchResult) error {
	// Untraced cycles on either side of the traced one, so that the
	// overhead ratio does not charge tracing with the first cycle's
	// warm-up or credit it with a later cycle's warm caches.
	seed = w.cycleSeed(seed, 0)
	var u [2]cycle
	var tc cycle
	t := newTracer()
	for i, tr := range []*Tracer{nil, t, nil} {
		c, err := runCycle(w, scale, seed, per, cycleDir(outDir, w.name, i), tr)
		if err != nil {
			return fmt.Errorf("%s cycle %d (traced: %v): %w", w.name, i, tr != nil, err)
		}
		switch i {
		case 0:
			u[0] = c
		case 1:
			tc = c
		case 2:
			u[1] = c
		}
	}
	// Tracing must not change what the engine does.
	if err := sameAnswers(w, u[0], tc); err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	spans := t.Spans()
	r.Env.Spans = len(spans)
	r.Env.Objects, r.Env.BufferFrames = tc.sum.objects, tc.sum.frames
	r.Env.LatencySamples = tc.lat.N()
	if err := os.MkdirAll(filepath.Join(outDir, "spans"), 0o755); err != nil {
		return err
	}
	r.Env.SpanFile = filepath.Join(outDir, "spans", w.name+".tsv.gz")
	if err := writeSpans(r.Env.SpanFile, spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	layerMetrics(r.Line.Metrics, u, tc, t, spans)
	return nil
}

// wall is the work traced and untraced cycles share: the traced cycle's
// extra stand-alone generation is not counted as tracing overhead.
func (c cycle) wall() time.Duration {
	d := c.setup + c.run + c.close
	for _, r := range c.recovers {
		d += r
	}
	return d
}
