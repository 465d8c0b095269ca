package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// metricDef names one metric of BENCHMARK.json with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; for each, the workload's own unit of work
// fills it in:
//
//	work_per_s           ingest: ranks merged/s; session: sessions/s; fleet: operations/s
//	latency_ms_*         ingest: hpcprof pass; session: each exec after the first
//	                     answer; fleet: each operation, from its due time
//	first_answer_ms_*    ingest: evict → acquire → hot path on the fresh database;
//	                     session: POST /v1/sessions → first hot CYCLES (cold open);
//	                     fleet: the same, for short sessions
//	db_bytes_per_scope   v3 database bytes / scopes, over the databases the
//	                     workload writes
//
// The tail is p95, not p99: in the fleet's open loop p99 measures how often
// the host stalls for a few hundred ms, which swung it up to 4× between
// runs of one seed on a shared 2-CPU host; p95 still lands on the slowest
// command (view flat, one exec in twelve) in a session. The table prints
// p99 as well. first_answer_ms_p90 is printed for the session workload
// but not gated: the ingest workload's ~40 ms first answers put its p90
// at the mercy of the host's short stalls (spread up to 0.29 over ten
// seeds).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p95", "ms"},
	{"first_answer_ms_p50", "ms"},
	{"peak_rss_mb", "MB"},
	{"db_bytes_per_scope", "B"},
}

// scriptCmds are the engine commands the session navigation script times,
// by span name suffix.
var scriptCmds = []string{"hot", "view_callers", "view_flat", "expand", "flatten", "sort", "stats", "view_cc", "ls"}

// routes are the server routes timed by the fleet traffic.
var routes = []string{"session", "report", "compare", "pick", "trace", "ingest"}

// selfLayers are the layers the traced timed phase attributes self time to.
var selfLayers = []string{"profile", "merge", "expdb", "catalog", "engine", "server", "loadgen"}

// perLayer are the traced run's metrics, named after the packages they
// time. A layer a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	l := []metricDef{
		{"profile.read_ms", "ms"},
		{"correlate.ms", "ms"},
		{"merge.add_ms", "ms"},
		{"merge.fold_ms", "ms"},
		{"merge.combine_ms", "ms"},
		{"merge.finish_ms", "ms"},
		{"expdb.write_ms", "ms"},
		{"expdb.db_bytes", "B"},
		{"expdb.open_ms", "ms"},
		{"expdb.decode_ms", "ms"},
		{"catalog.publish_ms", "ms"},
		{"catalog.acquire_ms", "ms"},
		{"catalog.ingest_ms", "ms"},
		{"catalog.hit_ratio", "ratio"},
		{"catalog.opens", "count"},
		{"catalog.evictions", "count"},
		{"catalog.resident_mb_max", "MB"},
	}
	for _, c := range scriptCmds {
		l = append(l, metricDef{"engine." + c + "_ms", "ms"})
	}
	l = append(l,
		metricDef{"core.flat_view_ms", "ms"},
		metricDef{"core.callers_view_ms", "ms"},
		metricDef{"report.build_ms", "ms"},
		metricDef{"diff.diff_ms", "ms"},
		metricDef{"server.exec_overhead_ms", "ms"},
	)
	for _, r := range routes {
		l = append(l, metricDef{"server.route." + r + "_ms_p50", "ms"})
	}
	l = append(l,
		metricDef{"server.shed", "count"},
		metricDef{"mpi.run_s", "s"},
		metricDef{"structfile.recover_ms", "ms"},
		metricDef{"loadgen.late_ms_p99", "ms"},
		metricDef{"unaccounted_share", "ratio"},
		metricDef{"trace.overhead_latency_ms_p50", "ms"},
		metricDef{"trace.overhead_first_answer_ms_p50", "ms"},
	)
	for _, s := range selfLayers {
		l = append(l, metricDef{"self." + s + "_share", "ratio"})
	}
	return l
}()

// sizes fix how much work each workload does. fullSizes is the benchmark;
// the smoke test runs tinySizes through the same code.
type sizes struct {
	setupReps int
	// ingest: one program, 32 ranks, ~92k merged scopes.
	ingest genParams
	// session: the same shape, published under sessionSeries series while
	// the catalog's memory budget holds one database.
	session       genParams
	sessionSeries int
	// fleet: fleetSeries generated series of small databases (plus the
	// shipped workloads), two generations each.
	fleet       genParams
	fleetSeries int
	// fleetRate is the open-loop arrival rate in operations per second:
	// about a quarter of the server's capacity for this mix (see
	// README.md), low enough that the latency tail is not dominated by
	// queueing behind the machine's own speed swings.
	fleetRate float64
}

var fullSizes = sizes{
	setupReps:     3,
	ingest:        genParams{Levels: 10, PerLevel: 24, Sites: 3, BranchP: 0.9, Ranks: 32, Period: 3000},
	session:       genParams{Levels: 10, PerLevel: 24, Sites: 3, BranchP: 0.9, Ranks: 32, Period: 3000},
	sessionSeries: 4,
	fleet:         genParams{Levels: 7, PerLevel: 8, Sites: 3, BranchP: 0.9, Ranks: 4, Period: 3000},
	fleetSeries:   36,
	fleetRate:     120,
}

// setupRepeated runs a workload's set-up setupReps times and keeps the
// last state and its release func; setup_s is the median set-up time.
// Each earlier state is released and the heap returned before the next
// repetition, so repeated set-up does not inflate the peak RSS.
func setupRepeated[T any](e *env, setup func(s sp, dir string) (T, func(), error)) (T, func(), obs, error) {
	var st T
	var times []float64
	var release func()
	for rep := 0; rep < e.sizes.setupReps; rep++ {
		if release != nil {
			release()
			runtime.GC()
			debug.FreeOSMemory()
		}
		dir := filepath.Join(e.dir, "setup"+strconv.Itoa(rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return st, release, obs{}, err
		}
		s := e.tr.root("setup.run", int64(rep))
		t0 := time.Now()
		var err error
		st, release, err = setup(s, dir)
		times = append(times, time.Since(t0).Seconds())
		s.end()
		if err != nil {
			return st, release, obs{}, err
		}
	}
	return st, release, obs{Value: quantile(times, 0.5), Unit: "s", N: len(times)}, nil
}

// medianMs reports the median duration of the named spans in ms.
func medianMs(spans []span, name string) obs {
	d := durations(spans, name)
	return obs{Value: quantile(d, 0.5), Unit: "ms", N: len(d)}
}

func latencyObs(v []float64, q float64) obs {
	return obs{Value: quantile(v, q), Unit: "ms", N: len(v)}
}
