package main

import (
	"sort"

	"oodb/internal/storage"
)

// endToEndUnits and perLayerUnits are every metric the benchmark prints,
// with its unit; BENCHMARK.json lists the same names (metrics_test.go).
var endToEndUnits = map[string]string{
	"setup_s":   "s",
	"txn_per_s": "1/s",
	"p50_us":    "us",
	"p99_us":    "us",
	"recover_s": "s",
	"heap_mb":   "MB",
}

var perLayerUnits = map[string]string{
	"setup.generate_s":             "s",
	"setup.place_s":                "s",
	"setup.bootstrap_commit_s":     "s",
	"core.place_calls":             "count",
	"core.place_self_s":            "s",
	"core.recluster_calls":         "count",
	"core.recluster_self_s":        "s",
	"core.splits":                  "count",
	"core.split_infeasible":        "count",
	"core.candidate_ios":           "count",
	"core.moves":                   "count",
	"buffer.hit_ratio":             "ratio",
	"buffer.misses":                "count",
	"buffer.evictions":             "count",
	"buffer.dirty_writebacks":      "count",
	"buffer.fault_us":              "us",
	"buffer.writeback_us":          "us",
	"storage.mutate_us":            "us",
	"storage.commit_us":            "us",
	"storage.wal_bytes_per_commit": "B",
	"storage.fsyncs_per_commit":    "count",
	"storage.page_reads_per_txn":   "count",
	"storage.page_writes_per_txn":  "count",
	"storage.dir_mb":               "MB",
	"storage.recover_records":      "count",
	"storage.close_s":              "s",
	"lock.requests_per_txn":        "count",
	"lock.conflict_ratio":          "ratio",
	"lock.max_waiters":             "count",
	"engine.logical_ops_per_txn":   "count",
	"engine.not_found_reads":       "count",
	"txlog.log_ios_per_txn":        "count",
	"sim.events_per_s":             "1/s",
	"sim.events_per_txn":           "count",
	"sim.hit_ratio":                "ratio",
	"sim.mean_resp_s":              "s",
	"trace.overhead_ratio":         "ratio",
}

// layerMetrics fills the per-layer metrics from a traced cycle tc, its
// spans, and the untraced cycles u of the same work. Time per call (the _us
// metrics) covers the run only; construction shows in setup.*.
func layerMetrics(m map[string]metric, u [2]cycle, tc cycle, t *Tracer, spans []Span) {
	set := func(name string, v float64) { m[name] = metric{v, perLayerUnits[name]} }
	phases := byPhase(spans)
	build, run := totals(phases[spanConstruct]), totals(phases[spanRun])
	var all spanTotals
	for _, p := range []spanTotals{build, run} {
		for i := range all.count {
			all.count[i] += p.count[i]
			all.total[i] += p.total[i]
			all.self[i] += p.self[i]
		}
	}
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	perCallUS := func(st spanTotals, names ...spanName) float64 {
		var n, ns int64
		for _, s := range names {
			n += st.count[s]
			ns += st.total[s]
		}
		return ratio(float64(ns)/1e3, float64(n))
	}

	gen := totals(phases[spanGenerate])
	set("setup.generate_s", secs(gen.total[spanGenerate]))
	set("setup.place_s", secs(build.total[spanPlaceNew]))
	set("setup.bootstrap_commit_s", secs(build.total[spanBootstrap]))

	// Clustering work of construction plus the run: the engine resets the
	// strategy's statistics after construction, so the wrapper kept them.
	b, r := t.strategy.build, t.strategy.Stats()
	set("core.place_calls", float64(all.count[spanPlaceNew]))
	set("core.place_self_s", secs(all.self[spanPlaceNew]))
	set("core.recluster_calls", float64(all.count[spanRecluster]))
	set("core.recluster_self_s", secs(all.self[spanRecluster]))
	set("core.splits", float64(b.Splits+r.Splits))
	set("core.split_infeasible", float64(b.SplitInfeasible+r.SplitInfeasible))
	set("core.candidate_ios", float64(b.CandidateIOs+r.CandidateIOs))
	set("core.moves", float64(b.Moves+r.Moves))

	s := tc.sum
	txns := float64(s.completed)
	set("buffer.hit_ratio", s.pool.HitRatio())
	set("buffer.misses", float64(s.pool.Misses))
	set("buffer.evictions", float64(s.pool.Evictions))
	set("buffer.dirty_writebacks", float64(s.pool.Flushes))
	set("buffer.fault_us", perCallUS(run, spanReadPage))
	set("buffer.writeback_us", perCallUS(run, spanWritePage))

	set("storage.mutate_us", perCallUS(run, spanPlace, spanRemove, spanMove))
	set("storage.commit_us", perCallUS(run, spanLogCommit))
	// Physical counters of the run alone; all zero over the memory backend.
	d, boot := s.durable, storage.DurableStats{}
	if t.durable != nil {
		boot = t.durable.boot
	}
	commits := float64(d.Committed - boot.Committed)
	set("storage.wal_bytes_per_commit", ratio(float64(d.WALBytes-boot.WALBytes), commits))
	set("storage.fsyncs_per_commit", ratio(float64(d.WALSyncs-boot.WALSyncs), commits))
	set("storage.page_reads_per_txn", ratio(float64(d.PageReads-boot.PageReads), txns))
	set("storage.page_writes_per_txn", ratio(float64(d.PageWrites-boot.PageWrites), txns))
	set("storage.dir_mb", float64(s.dirBytes)/(1<<20))
	records := 0
	if s.recovered != nil {
		records = s.recovered.Records
	}
	set("storage.recover_records", float64(records))
	set("storage.close_s", tc.close.Seconds())

	set("lock.requests_per_txn", ratio(float64(s.locks.Requests), txns))
	set("lock.conflict_ratio", ratio(float64(s.locks.Conflicts), float64(s.locks.Requests)))
	set("lock.max_waiters", float64(s.locks.MaxWaiters))
	set("engine.logical_ops_per_txn", ratio(float64(s.logical), txns))
	set("engine.not_found_reads", float64(s.notFound))
	set("txlog.log_ios_per_txn", ratio(float64(s.logIOs), txns))

	// Event rates come from the untraced cycles: the same events, unslowed.
	set("sim.events_per_s", ratio(float64(u[0].sum.events+u[1].sum.events), (u[0].run+u[1].run).Seconds()))
	set("sim.events_per_txn", ratio(float64(s.events), txns))
	set("sim.hit_ratio", s.simHit)
	set("sim.mean_resp_s", s.simMeanResp)

	set("trace.overhead_ratio", ratio(tc.wall().Seconds(), (u[0].wall()+u[1].wall()).Seconds()/2))
}

// byPhase groups spans under the top-level span (phase) they descend from.
// It sorts spans in place and returns sub-slices of it.
func byPhase(spans []Span) map[spanName][]Span {
	var maxID int32
	for _, s := range spans {
		maxID = max(maxID, s.ID)
	}
	parent := make([]int32, maxID+1)
	name := make([]spanName, maxID+1)
	for _, s := range spans {
		parent[s.ID], name[s.ID] = s.Parent, s.Name
	}
	phase := func(s Span) spanName {
		root := s.ID
		for parent[root] != 0 {
			root = parent[root]
		}
		return name[root]
	}
	sort.SliceStable(spans, func(i, j int) bool { return phase(spans[i]) < phase(spans[j]) })
	out := map[spanName][]Span{}
	for i := 0; i < len(spans); {
		p := phase(spans[i])
		j := i
		for j < len(spans) && phase(spans[j]) == p {
			j++
		}
		out[p] = spans[i:j]
		i = j
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
