package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/workloads"
)

// fleetKind is one kind of operation in the fleet's request mix.
type fleetKind int

const (
	opSession fleetKind = iota // create, hot CYCLES, delete
	opReport                   // GET /v1/report
	opCompare                  // POST /v1/compare between a series' two generations
	opPick                     // GET /v1/pick
	opTrace                    // GET /v1/trace
	opIngest                   // POST /v1/ingest of a new generation
	opAbandon                  // create and one exec, never deleted
	numKinds
)

// fleetMix is the share of each kind in percent: mostly short sessions,
// the unattended report and compare requests programmatic analysis
// drives, picks and trace views, ingests that put writes beside the
// reads, and a few abandoned sessions. The abandoned sessions pin
// evicted databases and keep the catalog's memory-budget defect visible.
var fleetMix = [numKinds]int{55, 15, 10, 8, 5, 5, 2}

// fleetOp is one scheduled operation.
type fleetOp struct {
	i      int
	kind   fleetKind
	target int // database index (series for sessions, picks and compares)
	due    time.Time
}

// fleetDB is one published generation and what setup computed for it.
type fleetDB struct {
	series string
	ts     int64
	path   string
	size   int64
	scopes int
	// report is the report.Build JSON the server must return byte for byte.
	report []byte
	// hot is the first answer's output (set on each series' newest
	// generation, which sessions resolve to).
	hot string
}

func (d *fleetDB) name() string { return fmt.Sprintf("%s@%d", d.series, d.ts) }

// fleetState is the fleet workload's set-up.
type fleetState struct {
	cat *catalog.Catalog
	hs  *httptest.Server
	// dbs holds two generations per series: dbs[2*s] and dbs[2*s+1].
	dbs []*fleetDB
	// picks is the generation each (series, strategy) pick must return.
	picks       map[string]string
	traceSeries string
	ingestBody  []byte
	totalBytes  int64
	totalScopes int
}

var pickStrategies = []string{"latest", "most-samples", "p50"}

// fleetSetup builds and publishes the fleet's databases: generated series
// of 1k–8k scopes, the first of which carries traces, and the shipped
// workloads, two generations each from different run seeds. The programs'
// shapes depend only on the series index, so every seed serves the same
// mix of database sizes; the seed picks the sampled runs and the traffic.
func fleetSetup(e *env, s sp, dir string) (*fleetState, error) {
	var specs []dbSpec
	for i := 0; i < e.sizes.fleetSeries; i++ {
		gp := e.sizes.fleet
		gp.Levels += i % 2
		gp.PerLevel += (i * 7) % gp.PerLevel
		gp.Trace = i == 0
		p, err := layeredProgram(fmt.Sprintf("gen%02d", i), gp, int64(i))
		if err != nil {
			return nil, err
		}
		specs = append(specs, dbSpec{name: fmt.Sprintf("gen/g%02d", i), prog: p, gp: gp})
	}
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		gp := genParams{Ranks: w.Ranks, Period: w.Period, Summaries: true}
		specs = append(specs, dbSpec{name: "ship/" + name, prog: w.Program, opts: w.LowerOpts, gp: gp, params: w.Params})
	}
	st := &fleetState{picks: map[string]string{}, traceSeries: specs[0].name}
	for _, spec := range specs {
		for g := int64(1); g <= 2; g++ {
			spec.seed = e.seed*7 + g
			file := spec
			file.name = filepath.Base(spec.name) + fmt.Sprintf("-%d", g)
			b, err := buildDB(s, file, dir)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.name, err)
			}
			st.dbs = append(st.dbs, &fleetDB{series: spec.name, ts: g, path: b.path, size: b.size, scopes: b.scopes})
			st.totalBytes += b.size
			st.totalScopes += b.scopes
		}
	}
	var err error
	if st.ingestBody, err = os.ReadFile(st.dbs[0].path); err != nil {
		return nil, err
	}
	for _, d := range st.dbs {
		snap, err := engine.Open(d.path)
		if err != nil {
			return nil, err
		}
		if err := snap.FaultAll(); err != nil {
			snap.Release()
			return nil, err
		}
		rep, err := report.Build(snap.Experiment(), report.Options{})
		if err == nil {
			d.report, err = rep.JSON()
		}
		if err == nil && d.ts == 2 {
			var outs []string
			outs, err = replay(sp{}, snap, []string{firstLine})
			if err == nil {
				d.hot = outs[0]
			}
		}
		snap.Release()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name(), err)
		}
	}
	catDir := filepath.Join(dir, "catalog")
	if err := os.MkdirAll(catDir, 0o755); err != nil {
		return nil, err
	}
	st.cat = catalog.New(catalog.Config{Dir: catDir, MemBudget: st.totalBytes / 4})
	ok := false
	defer func() {
		if !ok {
			st.cat.Close()
		}
	}()
	for _, d := range st.dbs {
		service, run, _ := strings.Cut(d.series, "/")
		if err := publish(s, st.cat, catalog.Key{Service: service, Run: run, Ts: d.ts}, d.path); err != nil {
			return nil, err
		}
	}
	// Picks measure each generation once and memoize; do that here, so
	// timed picks cost what they cost a warmed server.
	for i := 0; i < len(st.dbs); i += 2 {
		for _, strat := range pickStrategies {
			k, err := st.cat.Pick(st.dbs[i].series, strat)
			if err != nil {
				return nil, err
			}
			st.picks[st.dbs[i].series+"|"+strat] = k.String()
		}
	}
	st.cat.EvictAll()
	ok = true
	return st, nil
}

// schedule lays out the run's operations: every block of 100 holds each
// kind exactly as often as fleetMix says, in an order the seed shuffles,
// and each kind cycles through the databases in its own seeded order.
// Exact shares and even coverage keep two seeds' traffic alike; the seed
// still decides which operation meets which database when.
func schedule(seed int64, n, ndbs int) []fleetOp {
	rng := rand.New(rand.NewSource(seed))
	var block []fleetKind
	for k, share := range fleetMix {
		for j := 0; j < share; j++ {
			block = append(block, fleetKind(k))
		}
	}
	var orders [numKinds][]int
	var next [numKinds]int
	for k := range orders {
		orders[k] = rng.Perm(ndbs)
	}
	ops := make([]fleetOp, n)
	for i := range ops {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		k := block[i%len(block)]
		ops[i] = fleetOp{i: i, kind: k, target: orders[k][next[k]%ndbs]}
		next[k]++
	}
	return ops
}

// runFleet is a shared server under an open loop: operations arrive at a
// fixed rate regardless of how fast earlier ones finish, and at most two
// connections carry them. Catalog acquire, evict and reopen, admission
// and per-request overhead dominate; tree decode and views matter little.
func runFleet(e *env) (*outcome, error) {
	st, release, setup, err := setupRepeated(e, func(s sp, dir string) (*fleetState, func(), error) {
		rm := func() { os.RemoveAll(dir) }
		st, err := fleetSetup(e, s, dir)
		if err != nil {
			return nil, rm, err
		}
		var stop func()
		st.hs, stop = startServer(st.cat)
		return st, func() { stop(); rm() }, nil
	})
	if release != nil {
		defer release()
	}
	if err != nil {
		return nil, err
	}

	n := max(1, int(e.seconds.Seconds()*e.sizes.fleetRate))
	ops := schedule(e.seed, n, len(st.dbs))
	interval := time.Duration(float64(time.Second) / e.sizes.fleetRate)
	// Every operation of the run fits, so the generator never blocks on a
	// slow server: that is what makes the loop open.
	queue := make(chan fleetOp, n)
	var chk check
	var lat, tracedLat, first, tracedFirst, late, resident, execMs samples
	var acquires, completed, ingestTs atomic.Int64
	var lastDone atomic.Int64
	before := st.cat.Stats()
	start := time.Now()
	go func() {
		defer close(queue)
		for _, op := range ops {
			op.due = start.Add(time.Duration(op.i) * interval)
			time.Sleep(time.Until(op.due))
			late.add(ms(time.Since(op.due)))
			queue <- op
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		cl := newClient(st.hs.URL)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.close()
			for op := range queue {
				tr := e.unitTracer(op.i)
				root := tr.rootAt("bench.op", int64(op.i), op.due)
				root.childAt("loadgen.queue", op.due).end()
				f, acq, err := fleetDo(root, cl, st, op, &ingestTs, &execMs)
				root.end()
				done := time.Now()
				chk.op(err)
				acquires.Add(int64(acq))
				if err != nil {
					continue
				}
				completed.Add(1)
				lastDone.Store(int64(done.Sub(start)))
				ls, fs := &lat, &first
				if tr != nil {
					ls, fs = &tracedLat, &tracedFirst
				}
				ls.add(ms(done.Sub(op.due)))
				if f > 0 {
					fs.add(f)
				}
				if e.traced {
					resident.add(float64(st.cat.Stats().ResidentBytes) / (1 << 20))
				}
			}
		}()
	}
	wg.Wait()
	after := st.cat.Stats()

	o := &outcome{e2e: map[string]obs{}, layer: map[string]obs{}}
	chk.into(o)
	done := int(completed.Load())
	o.e2e["setup_s"] = setup
	o.e2e["work_per_s"] = obs{Value: float64(done) / time.Duration(lastDone.Load()).Seconds(), Unit: "1/s", N: done}
	o.e2e["latency_ms_p50"] = latencyObs(lat.get(), 0.5)
	o.e2e["latency_ms_p95"] = latencyObs(lat.get(), 0.95)
	o.e2e["first_answer_ms_p50"] = latencyObs(first.get(), 0.5)
	o.e2e["db_bytes_per_scope"] = obs{Value: float64(st.totalBytes) / float64(st.totalScopes), Unit: "B", N: len(st.dbs)}
	o.named = []namedObs{
		{"setup_s", setup},
		{"fleet_ms_p50", o.e2e["latency_ms_p50"]},
		{"fleet_ms_p99", latencyObs(lat.get(), 0.99)},
	}
	minScopes, maxScopes := st.dbs[0].scopes, st.dbs[0].scopes
	for _, d := range st.dbs {
		minScopes, maxScopes = min(minScopes, d.scopes), max(maxScopes, d.scopes)
	}
	o.sizes = map[string]float64{
		"databases": float64(len(st.dbs)), "db_bytes_total": float64(st.totalBytes),
		"scopes_min": float64(minScopes), "scopes_max": float64(maxScopes),
		"mem_budget_bytes": float64(after.MemBudget), "rate_per_s": e.sizes.fleetRate, "operations": float64(n),
	}
	if !e.traced {
		return o, nil
	}

	cl := newClient(st.hs.URL)
	defer cl.close()
	shed, err := cl.serverShed()
	chk.op(err)
	probe := e.tr.root("probe.fleet", -1)
	for i := 0; i < len(st.dbs); i += 2 {
		var snap *engine.Snapshot
		err := probe.do("catalog.acquire", func() (err error) {
			snap, _, err = st.cat.Acquire(st.dbs[i].series)
			return err
		})
		chk.op(err)
		if err == nil {
			snap.Release()
		}
	}
	for i := 0; i < 5; i++ {
		key := catalog.Key{Service: "probe", Run: "ingest", Ts: int64(i + 1)}
		chk.op(probe.do("catalog.ingest", func() error { return st.cat.Ingest(key, bytes.NewReader(st.ingestBody)) }))
	}
	for i := 0; i < len(st.dbs); i += 8 {
		chk.op(probeDB(probe, st.dbs[i+1].path, st.dbs[i].path))
	}
	probe.end()
	chk.into(o)

	spans := e.tr.all()
	engineLayer(o, spans)
	o.layer["catalog.ingest_ms"] = medianMs(spans, "catalog.ingest")
	for _, r := range routes {
		o.layer["server.route."+r+"_ms_p50"] = medianMs(spans, "server.route."+r)
	}
	// HTTP exec of hot CYCLES minus the in-process hot of the probes.
	o.layer["server.exec_overhead_ms"] = obs{
		Value: quantile(execMs.get(), 0.5) - medianMs(spans, "engine.hot").Value,
		Unit:  "ms", N: len(execMs.get()),
	}
	o.layer["server.shed"] = obs{Value: shed, Unit: "count", N: 1}
	o.layer["expdb.db_bytes"] = obs{Value: float64(st.totalBytes), Unit: "B", N: len(st.dbs)}
	opens := float64(after.Opens - before.Opens)
	acq := float64(acquires.Load())
	o.layer["catalog.opens"] = obs{Value: opens, Unit: "count", N: 1}
	o.layer["catalog.evictions"] = obs{Value: float64(after.Evictions - before.Evictions), Unit: "count", N: 1}
	o.layer["catalog.hit_ratio"] = obs{Value: (acq - opens) / acq, Unit: "ratio", N: int(acq)}
	o.layer["catalog.resident_mb_max"] = obs{Value: quantile(resident.get(), 1), Unit: "MB", N: len(resident.get())}
	o.layer["loadgen.late_ms_p99"] = latencyObs(late.get(), 0.99)
	o.layer["trace.overhead_latency_ms_p50"] = obs{Value: quantile(tracedLat.get(), 0.5) - quantile(lat.get(), 0.5), Unit: "ms", N: len(tracedLat.get())}
	o.layer["trace.overhead_first_answer_ms_p50"] = obs{Value: quantile(tracedFirst.get(), 0.5) - quantile(first.get(), 0.5), Unit: "ms", N: len(tracedFirst.get())}
	return o, nil
}

// fleetDo runs one operation and checks its response. It returns the
// first-answer latency of a short session (0 for other kinds) and how
// many catalog acquires the request makes; the HTTP time of each untraced
// exec goes to execMs.
func fleetDo(s sp, cl *client, st *fleetState, op fleetOp, ingestTs *atomic.Int64, execMs *samples) (firstMs float64, acquires int, err error) {
	// A target's series has its first generation at the even index and
	// its newest, which sessions and picks resolve to, at the odd one.
	base := st.dbs[op.target&^1]
	newest := st.dbs[op.target|1]
	db := st.dbs[op.target]
	switch op.kind {
	case opSession, opAbandon:
		t0 := time.Now()
		token, err := cl.create(s, base.series)
		if err != nil {
			return 0, 1, err
		}
		t1 := time.Now()
		out, err := cl.exec(s, token, firstLine)
		if err != nil {
			return 0, 1, err
		}
		if s.t == nil {
			execMs.add(ms(time.Since(t1)))
		}
		if out != newest.hot {
			return 0, 1, fmt.Errorf("%s: first answer differs from the in-process replay", base.series)
		}
		if op.kind == opAbandon {
			return 0, 1, nil
		}
		return ms(time.Since(t0)), 1, cl.remove(s, token)
	case opReport:
		b, err := cl.call(s, "report", "GET", "/v1/report?db="+url.QueryEscape(db.name()), nil, http.StatusOK)
		if err == nil && !bytes.Equal(b, db.report) {
			err = fmt.Errorf("report of %s differs from report.Build", db.name())
		}
		return 0, 1, err
	case opCompare:
		body, _ := json.Marshal(map[string]string{"base": base.name(), "other": newest.name()})
		b, err := cl.call(s, "compare", "POST", "/v1/compare", body, http.StatusOK)
		if err == nil && !json.Valid(b) {
			err = fmt.Errorf("compare %s: invalid JSON", base.series)
		}
		return 0, 2, err
	case opPick:
		strat := pickStrategies[op.i%len(pickStrategies)]
		b, err := cl.call(s, "pick", "GET", "/v1/pick?series="+url.QueryEscape(base.series)+"&strategy="+strat, nil, http.StatusOK)
		if err != nil {
			return 0, 0, err
		}
		want := st.picks[base.series+"|"+strat]
		if !bytes.Contains(b, []byte(`"`+want+`"`)) {
			return 0, 0, fmt.Errorf("pick %s %s: got %.200s, want %s", base.series, strat, b, want)
		}
		return 0, 0, nil
	case opTrace:
		b, err := cl.call(s, "trace", "GET", "/v1/trace?db="+url.QueryEscape(st.traceSeries)+"&w=64&h=16", nil, http.StatusOK)
		if err == nil && !bytes.Contains(b, []byte(`"cpid"`)) {
			err = fmt.Errorf("trace %s: no grid in response", st.traceSeries)
		}
		return 0, 1, err
	case opIngest:
		ts := ingestTs.Add(1)
		_, err := cl.call(s, "ingest", "POST", fmt.Sprintf("/v1/ingest?service=fleet&run=ingest&ts=%d", ts),
			st.ingestBody, http.StatusCreated)
		return 0, 0, err
	}
	return 0, 0, fmt.Errorf("unknown operation kind %d", op.kind)
}
