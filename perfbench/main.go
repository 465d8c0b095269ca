// Command perfbench is the repository's end-to-end benchmark. It drives
// the real pipeline — measurement files → correlate/merge → v3 database →
// catalog → engine → HTTP server — only through public package functions
// and an in-process HTTP server, on inputs generated from a seed, and
// checks every output it measures.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload ingest|session|fleet --seed N \
//	     --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics
// of a traced run, whose spans are also written to
// .bench_build/spans-WORKLOAD-seedN.jsonl. Lines before it are for people:
// the machine, then every metric with its unit and sample count. The exit
// code is non-zero when any output check failed.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// outDir holds everything the benchmark writes, relative to the
// repository root it runs from.
const outDir = ".bench_build"

// env is one run's settings.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	sizes    sizes
	dir      string  // scratch directory, removed at exit
	out      string  // where the traced run writes its spans
	tr       *tracer // nil unless traced
}

// unitTracer returns the tracer for unit i of the timed phase. A traced
// run traces every other unit, so the untraced units in between measure
// the same traffic without spans and their difference is the tracing
// overhead.
func (e *env) unitTracer(i int) *tracer {
	if i%2 == 1 {
		return e.tr
	}
	return nil
}

// obs is one reported number with its unit and sample count.
type obs struct {
	Value float64
	Unit  string
	N     int
}

// outcome is what a workload run reports.
type outcome struct {
	// named holds the end-to-end metrics under their per-workload names
	// (ingest_ranks_per_s, cmd_ms_p99, ...); they are printed for people
	// and map onto the workload-neutral metrics in e2e.
	named []namedObs
	e2e   map[string]obs
	layer map[string]obs
	sizes map[string]float64

	attempted, failed int
	failures          []string
}

type namedObs struct {
	name string
	obs
}

// check counts one checked operation.
type check struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

func (c *check) op(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.failures) < 5 {
			c.failures = append(c.failures, err.Error())
		}
	}
}

func (c *check) into(o *outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o.attempted, o.failed, o.failures = c.attempted, c.failed, c.failures
}

// samples is a concurrency-safe list of measurements.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) get() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// quantile interpolates linearly between closest ranks; NaN when empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "ingest, session or fleet")
	seed := fl.Int64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := fl.Float64("seconds", 10, "length of the timed phase in seconds")
	traceFlag := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2, err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive")
	}
	wl, ok := runners[*workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want ingest, session or fleet)", *workload)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 1, err
	}
	dir, err := os.MkdirTemp(outDir, "run-"+*workload+"-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	e := &env{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traceFlag == 1,
		sizes:    fullSizes,
		dir:      dir,
		out:      outDir,
	}
	if e.traced {
		e.tr = newTracer()
	}
	correct, err := emit(stdout, e, machine(*seed), wl)
	if err != nil {
		return 1, err
	}
	if !correct {
		return 1, fmt.Errorf("output checks failed")
	}
	return 0, nil
}

// emit runs the workload and prints its results: the machine, a table of
// every metric, and the JSON result line. It reports whether every output
// check passed.
func emit(w io.Writer, e *env, mach map[string]string, wl func(*env) (*outcome, error)) (bool, error) {
	mj, _ := json.Marshal(mach)
	fmt.Fprintf(w, "# machine %s\n", mj)
	o, err := wl(e)
	if err != nil {
		return false, err
	}
	if rss, err := peakRSSMB(); err == nil {
		o.e2e["peak_rss_mb"] = obs{Value: rss, Unit: "MB", N: 1}
		o.named = append(o.named, namedObs{"peak_rss_mb", o.e2e["peak_rss_mb"]})
	} else {
		return false, err
	}
	if e.traced {
		spans := e.tr.all()
		addAccounting(o, spans)
		path := filepath.Join(e.out, fmt.Sprintf("spans-%s-seed%d.jsonl", e.workload, e.seed))
		if err := writeSpans(path, mach, spans); err != nil {
			return false, err
		}
		fmt.Fprintf(w, "# spans written to %s (%d spans)\n", path, len(spans))
	}
	fail := 0.0
	if o.attempted > 0 {
		fail = float64(o.failed) / float64(o.attempted)
	}
	o.named = append(o.named, namedObs{"fail_share", obs{Value: fail, Unit: "ratio", N: o.attempted}})

	keys := make([]string, 0, len(o.sizes))
	for k := range o.sizes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# size %-28s %v\n", k, o.sizes[k])
	}
	fmt.Fprintf(w, "# end-to-end metrics of workload %s (per-workload names)\n", e.workload)
	for _, n := range o.named {
		fmt.Fprintf(w, "%-28s %14.4f %-6s n=%d\n", n.name, n.Value, n.Unit, n.N)
	}
	list, kind := endToEnd, "end-to-end"
	values := o.e2e
	if e.traced {
		list, kind, values = perLayer, "per-layer", o.layer
	}
	fmt.Fprintf(w, "# %s metrics (BENCHMARK.json)\n", kind)
	metrics := map[string]any{}
	for _, m := range list {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			if !e.traced {
				return false, fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			// A layer the workload does not exercise reports zero work.
			v = obs{Unit: m.unit}
		}
		if v.Unit != m.unit {
			return false, fmt.Errorf("metric %s measured in %s, declared in %s", m.name, v.Unit, m.unit)
		}
		fmt.Fprintf(w, "%-36s %14.4f %-6s n=%d\n", m.name, v.Value, m.unit, v.N)
		metrics[m.name] = map[string]any{"value": v.Value, "unit": m.unit}
	}
	for _, f := range o.failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	correct := o.failed == 0 && o.attempted > 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(o.attempted, 1),
		"failed":    o.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return correct, nil
}

// addAccounting adds the trace's self-time shares and unaccounted share.
func addAccounting(o *outcome, spans []span) {
	acc := account(spans)
	var total float64
	for _, v := range acc.SelfMs {
		total += v
	}
	for _, l := range selfLayers {
		share := 0.0
		if total > 0 {
			share = acc.SelfMs[l] / total
		}
		o.layer["self."+l+"_share"] = obs{Value: share, Unit: "ratio", N: len(spans)}
	}
	o.layer["unaccounted_share"] = obs{Value: acc.Unaccounted, Unit: "ratio", N: len(spans)}
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// machine describes where a result was measured. The commit comes from
// the build's VCS stamp when the source is a git checkout; otherwise the
// digest of the Go sources stands in for it.
func machine(seed int64) map[string]string {
	m := map[string]string{
		"cpu":        cpuModel(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"seed":       strconv.FormatInt(seed, 10),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m["commit"] = s.Value
			}
		}
	}
	if m["commit"] == "" {
		m["source_sha256"] = sourceDigest(".")
	}
	return m
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and .go file under root, skipping
// hidden directories (the build output among them).
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
