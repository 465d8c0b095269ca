package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/structfile"
)

// runners maps each workload name to its runner. BENCHMARK.json gates
// ingest and session; fleet is too noisy on a shared host to gate (see
// README.md) and runs on request.
var runners = map[string]func(*env) (*outcome, error){
	"ingest":  runIngest,
	"session": runSession,
	"fleet":   runFleet,
}

// ingestState is the ingest workload's set-up: the measurement files of
// one 32-rank run and the structure they correlate against.
type ingestState struct {
	doc       *structfile.Doc
	paths     []string
	profBytes int64
	// wantCycles is the sum of every rank's sampled CYCLES
	// (profile.Totals), which the merged root's inclusive CYCLES must equal.
	wantCycles float64
	cat        *catalog.Catalog
	dbDir      string
}

// firstAnswers is how many cold first answers follow each pass.
const firstAnswers = 3

// runIngest is offline analysis, the hpcprof path: each timed pass reads
// every rank's measurement file, merges them in nproc accumulators,
// combines, finishes, writes a v3 database atomically and publishes it as
// a new catalog generation; then the fresh generation is opened for its
// first answer. Correlation, merge and the v3 writer do nearly all the
// work; views and the server do none.
func runIngest(e *env) (*outcome, error) {
	gp := e.sizes.ingest
	st, release, setup, err := setupRepeated(e, func(s sp, dir string) (*ingestState, func(), error) {
		release := func() { os.RemoveAll(dir) }
		p, err := layeredProgram("layered", gp, e.seed)
		if err != nil {
			return nil, release, err
		}
		doc, profs, err := measure(s, p, lower.Options{}, gp, nil, e.seed)
		if err != nil {
			return nil, release, err
		}
		paths, n, err := writeProfiles(s, filepath.Join(dir, "meas"), profs)
		if err != nil {
			return nil, release, err
		}
		var cycles uint64
		for _, pr := range profs {
			i := pr.MetricIndex("CYCLES")
			if i < 0 {
				return nil, release, fmt.Errorf("rank %d has no CYCLES metric", pr.Rank)
			}
			cycles += pr.Totals()[i]
		}
		dbDir := filepath.Join(dir, "db")
		if err := os.MkdirAll(dbDir, 0o755); err != nil {
			return nil, release, err
		}
		cat := catalog.New(catalog.Config{})
		return &ingestState{doc: doc, paths: paths, profBytes: n, wantCycles: float64(cycles), cat: cat, dbDir: dbDir},
			func() { cat.Close(); release() }, nil
	})
	if release != nil {
		defer release()
	}
	if err != nil {
		return nil, err
	}

	var chk check
	var passMs, firstMs, tracedPassMs, tracedFirstMs, residentMB []float64
	var ref *passOutput
	start := time.Now()
	deadline := start.Add(e.seconds)
	passes := 0
	// At least two passes, so the cross-pass identity checks always run.
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		tr := e.unitTracer(i)
		// Each pass starts from a collected heap, as a fresh hpcprof
		// process would, and so do the first answers after it.
		runtime.GC()
		out, err := ingestPass(tr.root("bench.pass", int64(i)), st, i)
		if err != nil {
			chk.op(err)
			break
		}
		runtime.GC()
		var firsts []float64
		for j := 0; j < firstAnswers && err == nil; j++ {
			// Evicting makes every answer open the generation cold.
			st.cat.EvictAll()
			t := time.Now()
			out.answer, err = firstAnswer(tr.root("bench.first_answer", int64(i)), st.cat, out.key.String())
			firsts = append(firsts, ms(time.Since(t)))
		}
		if err != nil {
			chk.op(err)
			break
		}
		chk.op(verifyPass(st, out, ref))
		if ref == nil {
			ref = out
		}
		if tr != nil {
			tracedPassMs, tracedFirstMs = append(tracedPassMs, out.passMs), append(tracedFirstMs, firsts...)
		} else {
			passMs, firstMs = append(passMs, out.passMs), append(firstMs, firsts...)
		}
		if e.traced {
			residentMB = append(residentMB, float64(st.cat.Stats().ResidentBytes)/(1<<20))
		}
		passes++
		// The catalog keeps three generations; older files are no longer
		// resolvable and only cost disk.
		if i >= 3 {
			os.Remove(filepath.Join(st.dbDir, fmt.Sprintf("pass%04d.db", i-3)))
		}
	}
	o := &outcome{e2e: map[string]obs{}, layer: map[string]obs{}}
	chk.into(o)
	if ref == nil {
		return o, nil
	}
	ranks := float64(len(st.paths))
	perS := make([]float64, len(passMs))
	for i, v := range passMs {
		perS[i] = ranks / (v / 1e3)
	}
	o.e2e["setup_s"] = setup
	o.e2e["work_per_s"] = obs{Value: quantile(perS, 0.5), Unit: "1/s", N: len(perS)}
	o.e2e["latency_ms_p50"] = latencyObs(passMs, 0.5)
	o.e2e["latency_ms_p95"] = latencyObs(passMs, 0.95)
	o.e2e["first_answer_ms_p50"] = latencyObs(firstMs, 0.5)
	o.e2e["db_bytes_per_scope"] = obs{Value: float64(ref.size) / float64(ref.scopes), Unit: "B", N: passes}
	o.named = []namedObs{
		{"setup_s", setup},
		{"ingest_ranks_per_s", o.e2e["work_per_s"]},
		{"db_bytes_per_scope", o.e2e["db_bytes_per_scope"]},
	}
	o.sizes = map[string]float64{
		"ranks": ranks, "scopes": float64(ref.scopes), "profile_bytes": float64(st.profBytes),
		"db_bytes": float64(ref.size), "passes": float64(passes),
	}
	if !e.traced {
		return o, nil
	}

	// Correlation alone, per profile, so that merge.fold_ms = add − correlate.
	probe := e.tr.root("probe.ingest", -1)
	for _, path := range st.paths {
		if err := probeCorrelate(probe, st.doc, path); err != nil {
			chk.op(err)
		}
	}
	last := filepath.Join(st.dbDir, fmt.Sprintf("pass%04d.db", passes-1))
	prev := filepath.Join(st.dbDir, fmt.Sprintf("pass%04d.db", passes-2))
	chk.op(probeDB(probe, last, prev))
	probe.end()
	chk.into(o)

	spans := e.tr.all()
	engineLayer(o, spans)
	o.layer["profile.read_ms"] = medianMs(spans, "profile.read")
	o.layer["correlate.ms"] = medianMs(spans, "correlate.correlate")
	o.layer["merge.add_ms"] = medianMs(spans, "merge.add")
	o.layer["merge.fold_ms"] = obs{Value: o.layer["merge.add_ms"].Value - o.layer["correlate.ms"].Value, Unit: "ms", N: o.layer["merge.add_ms"].N}
	o.layer["merge.combine_ms"] = medianMs(spans, "merge.combine")
	o.layer["merge.finish_ms"] = medianMs(spans, "merge.finish")
	o.layer["expdb.write_ms"] = medianMs(spans, "expdb.write")
	o.layer["expdb.db_bytes"] = obs{Value: float64(ref.size), Unit: "B", N: passes}
	o.layer["catalog.publish_ms"] = medianMs(spans, "catalog.publish")
	o.layer["catalog.resident_mb_max"] = obs{Value: quantile(residentMB, 1), Unit: "MB", N: len(residentMB)}
	cs := st.cat.Stats()
	o.layer["catalog.opens"] = obs{Value: float64(cs.Opens), Unit: "count", N: 1}
	o.layer["catalog.evictions"] = obs{Value: float64(cs.Evictions), Unit: "count", N: 1}
	// Every first answer acquires its generation after an eviction.
	acquires := float64(passes * firstAnswers)
	o.layer["catalog.hit_ratio"] = obs{Value: 1 - float64(cs.Opens)/acquires, Unit: "ratio", N: int(acquires)}
	o.layer["trace.overhead_latency_ms_p50"] = obs{Value: quantile(tracedPassMs, 0.5) - quantile(passMs, 0.5), Unit: "ms", N: len(tracedPassMs)}
	o.layer["trace.overhead_first_answer_ms_p50"] = obs{Value: quantile(tracedFirstMs, 0.5) - quantile(firstMs, 0.5), Unit: "ms", N: len(tracedFirstMs)}
	return o, nil
}

// passOutput is what one ingest pass produced.
type passOutput struct {
	passMs     float64
	rootCycles float64
	scopes     int
	size       int64
	sum        [32]byte
	answer     string
	path       string
	key        catalog.Key
}

// ingestPass runs one hpcprof pass under root: merge, write and publish.
func ingestPass(root sp, st *ingestState, i int) (*passOutput, error) {
	defer root.end()
	out := &passOutput{
		path: filepath.Join(st.dbDir, fmt.Sprintf("pass%04d.db", i)),
		key:  catalog.Key{Service: "ingest", Run: "layered", Ts: int64(i + 1)},
	}
	t0 := time.Now()
	res, err := mergeFiles(root, st.doc, st.paths, false)
	if err != nil {
		return nil, err
	}
	size, err := writeDB(root, expdb.FromMerge(res), out.path)
	if err != nil {
		return nil, err
	}
	if err := publish(root, st.cat, out.key, out.path); err != nil {
		return nil, err
	}
	out.passMs = ms(time.Since(t0))
	d := res.Tree.Reg.ByName("CYCLES")
	if d == nil {
		return nil, fmt.Errorf("merged tree has no CYCLES column")
	}
	out.rootCycles = res.Tree.Root.Incl.Get(d.ID)
	out.scopes = res.Tree.NumNodes()
	out.size = size
	return out, nil
}

// firstAnswer acquires a catalog generation and asks a new session for
// the hot path, as the first question a user asks a fresh database. It
// ends the root span s.
func firstAnswer(s sp, cat *catalog.Catalog, name string) (string, error) {
	defer s.end()
	var snap *engine.Snapshot
	err := s.do("catalog.acquire", func() (err error) {
		snap, _, err = cat.Acquire(name)
		return err
	})
	if err != nil {
		return "", err
	}
	defer snap.Release()
	outs, err := replay(s, snap, []string{firstLine})
	if err != nil {
		return "", err
	}
	return outs[0], nil
}

// verifyPass checks one pass: the merged root's inclusive CYCLES equals
// the per-rank totals, the database verifies end to end, and scopes,
// bytes and first answer are identical to the first pass's.
func verifyPass(st *ingestState, out, ref *passOutput) error {
	if math.Abs(out.rootCycles-st.wantCycles) > 1e-9*st.wantCycles {
		return fmt.Errorf("root CYCLES %v, want per-rank total %v", out.rootCycles, st.wantCycles)
	}
	b, err := os.ReadFile(out.path)
	if err != nil {
		return err
	}
	out.sum = sha256.Sum256(b)
	mdb, err := expdb.OpenMapped(out.path)
	if err != nil {
		return err
	}
	err = mdb.VerifyAll()
	mdb.Close()
	if err != nil {
		return fmt.Errorf("verify %s: %w", out.path, err)
	}
	if ref == nil {
		return nil
	}
	switch {
	case out.scopes != ref.scopes:
		return fmt.Errorf("pass has %d scopes, first pass %d", out.scopes, ref.scopes)
	case out.size != ref.size || !bytes.Equal(out.sum[:], ref.sum[:]):
		return fmt.Errorf("database bytes differ from the first pass's")
	case out.answer != ref.answer:
		return fmt.Errorf("first answer differs from the first pass's")
	}
	return nil
}
