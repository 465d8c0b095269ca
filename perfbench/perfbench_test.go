package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinySizes runs every workload through the same code at a size that
// finishes in seconds.
var tinySizes = sizes{
	setupReps:     1,
	ingest:        genParams{Levels: 4, PerLevel: 4, Sites: 2, BranchP: 0.9, Ranks: 4, Period: 1000},
	session:       genParams{Levels: 4, PerLevel: 4, Sites: 2, BranchP: 0.9, Ranks: 4, Period: 1000},
	sessionSeries: 2,
	fleet:         genParams{Levels: 3, PerLevel: 3, Sites: 2, BranchP: 0.9, Ranks: 2, Period: 1000, Summaries: true},
	fleetSeries:   2,
	fleetRate:     40,
}

// benchmarkJSON is the benchmark's declaration at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsSmoke runs each workload at a tiny size, untraced and
// traced, through its output checks, and asserts that the result line
// names every metric BENCHMARK.json declares with its unit and that the
// table names the workload's end-to-end metrics.
func TestWorkloadsSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	checkDecl(t, "end_to_end", decl.EndToEnd, endToEnd)
	checkDecl(t, "per_layer", decl.PerLayer, perLayer)

	named := map[string][]string{
		"ingest":  {"setup_s", "ingest_ranks_per_s", "db_bytes_per_scope", "peak_rss_mb", "fail_share"},
		"session": {"first_answer_ms_p50", "first_answer_ms_p90", "cmd_ms_p50", "cmd_ms_p99", "sessions_per_s"},
		"fleet":   {"fleet_ms_p50", "fleet_ms_p99"},
	}
	for _, w := range decl.Workloads {
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
		}
	}
	// Every workload runs, the ungated fleet too.
	for name, run := range runners {
		for _, traced := range []bool{false, true} {
			e := &env{workload: name, seed: 3, seconds: 500 * time.Millisecond, traced: traced,
				sizes: tinySizes, dir: t.TempDir(), out: t.TempDir()}
			if traced {
				e.tr = newTracer()
			}
			var out bytes.Buffer
			correct, err := emit(&out, e, machine(e.seed), run)
			if err != nil || !correct {
				t.Fatalf("%s traced=%v: correct=%v err=%v\n%s", name, traced, correct, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			if len(res.Metrics) != len(want) || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d metrics (want %d), correct=%v attempted=%d failed=%d",
					name, traced, len(res.Metrics), len(want), res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
				}
			}
			for _, n := range named[name] {
				if !regexp.MustCompile(`(?m)^` + n + ` +-?[0-9.]+ +\S+ +n=[0-9]+$`).MatchString(out.String()) {
					t.Errorf("%s: table lacks %s with unit and sample count", name, n)
				}
			}
		}
	}
}

func checkDecl(t *testing.T, key string, decl []struct{ Name, Unit string }, code []metricDef) {
	t.Helper()
	if len(decl) != len(code) {
		t.Errorf("BENCHMARK.json %s has %d metrics, the benchmark %d", key, len(decl), len(code))
		return
	}
	for i, m := range code {
		if decl[i].Name != m.name || decl[i].Unit != m.unit {
			t.Errorf("BENCHMARK.json %s[%d] = %s %s, the benchmark reports %s %s", key, i, decl[i].Name, decl[i].Unit, m.name, m.unit)
		}
	}
}

// TestAccount checks self time and the unaccounted share on a hand-made
// trace: a 10 ms unit whose two parallel children overlap.
func TestAccount(t *testing.T) {
	spans := []span{
		{Name: "bench.unit", Start: 0, End: 10e6, Parent: -1},
		{Name: "merge.add", Start: 1e6, End: 5e6, Parent: 0},
		{Name: "profile.read", Start: 3e6, End: 7e6, Parent: 0},
		{Name: "merge.fold", Start: 1e6, End: 2e6, Parent: 1},
		{Name: "setup.run", Start: 0, End: 50e6, Parent: -1},
		{Name: "mpi.run", Start: 0, End: 40e6, Parent: 4},
	}
	acc := account(spans)
	if got := acc.Unaccounted; got < 0.3999 || got > 0.4001 {
		t.Errorf("unaccounted = %v, want 0.4 (children cover 1..7 ms of 10)", got)
	}
	want := map[string]float64{"merge": 4, "profile": 4}
	for l, ms := range want {
		if got := acc.SelfMs[l]; got < ms-1e-9 || got > ms+1e-9 {
			t.Errorf("self %s = %v ms, want %v", l, got, ms)
		}
	}
	if _, ok := acc.SelfMs["mpi"]; ok {
		t.Errorf("set-up spans counted in the units' self time")
	}
}
