package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/metric"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// writePair stores a weak-scaling pair: the same program at 2 and at 8
// ranks, where mpi_wait grows far beyond ideal scaling, compute scales
// cleanly, a setup scope disappears at scale and an imbalance-fix scope
// appears.
func writePair(t *testing.T, dir string) (basePath, scaledPath string) {
	t.Helper()
	fkey := func(name string) core.Key {
		return core.Key{Kind: core.KindFrame, Name: core.Sym(name), File: core.Sym(name + ".c"), Line: 1}
	}
	mk := func(ranks int, build func(tr *core.Tree)) *expdb.Experiment {
		reg := metric.NewRegistry()
		if _, err := reg.AddRaw("CYCLES", "cycles", 1); err != nil {
			t.Fatal(err)
		}
		tr := core.NewTree("toy", reg)
		build(tr)
		tr.ComputeMetrics()
		e := expdb.New(tr)
		e.NRanks = ranks
		return e
	}
	base := mk(2, func(tr *core.Tree) {
		tr.AddPath(fkey("main"), fkey("compute")).Base.Add(0, 2000)
		tr.AddPath(fkey("main"), fkey("mpi_wait")).Base.Add(0, 200)
		tr.AddPath(fkey("main"), fkey("setup")).Base.Add(0, 100)
	})
	scaled := mk(8, func(tr *core.Tree) {
		tr.AddPath(fkey("main"), fkey("compute")).Base.Add(0, 8000)  // ideal weak scaling
		tr.AddPath(fkey("main"), fkey("mpi_wait")).Base.Add(0, 3200) // 4x beyond ideal
		tr.AddPath(fkey("main"), fkey("rebalance")).Base.Add(0, 400) // new at scale
	})
	write := func(name string, e *expdb.Experiment) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.WriteBinary(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return write("r2.db", base), write("r8.db", scaled)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("golden mismatch for %s:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestHpcdiffText(t *testing.T) {
	dir := t.TempDir()
	a, b := writePair(t, dir)
	var out strings.Builder
	if err := run([]string{"-threshold", "0", "-top", "0", a, b}, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_report.txt", out.String())
}

func TestHpcdiffJSON(t *testing.T) {
	dir := t.TempDir()
	a, b := writePair(t, dir)
	var out strings.Builder
	if err := run([]string{"-json", "-threshold", "0", "-top", "0", a, b}, &out); err != nil {
		t.Fatal(err)
	}
	// The JSON must parse and carry the headline fields.
	var rep map[string]any
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if rep["mode"] != "weak" || rep["per_rank"] != true {
		t.Fatalf("mode/per_rank = %v/%v, want weak/true", rep["mode"], rep["per_rank"])
	}
	checkGolden(t, "golden_report.json", out.String())
}

func TestHpcdiffUnionOutput(t *testing.T) {
	dir := t.TempDir()
	a, b := writePair(t, dir)
	union := filepath.Join(dir, "union.db")
	var out strings.Builder
	if err := run([]string{"-o", union, "-mode", "none", a, b}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote union database union.db") {
		t.Fatalf("no union confirmation in %q", out.String())
	}
	data, err := os.ReadFile(union)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "CPDB3") {
		t.Fatalf("union database is not v3: magic %q", data[:min(len(data), 5)])
	}
	got, err := expdb.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CYCLES[A]", "CYCLES[B]", "CYCLES[B-A]", "CYCLES[B/A]", "in[A]", "in[B]"} {
		if got.Tree.Reg.ByName(want) == nil {
			t.Fatalf("union database lacks column %s", want)
		}
	}
	if got.Tree.FindPath("main", "rebalance") == nil || got.Tree.FindPath("main", "setup") == nil {
		t.Fatal("union database lost one-sided scopes")
	}
}

func TestHpcdiffErrors(t *testing.T) {
	dir := t.TempDir()
	a, _ := writePair(t, dir)
	var out strings.Builder
	if err := run([]string{a}, &out); err == nil {
		t.Fatal("single input did not error")
	}
	if err := run([]string{"-mode", "sideways", a, a}, &out); err == nil {
		t.Fatal("bad mode did not error")
	}
	if err := run([]string{"-labels", "x", a, a}, &out); err == nil {
		t.Fatal("label count mismatch did not error")
	}
	if err := run([]string{"-metric", "WATTS", a, a}, &out); err == nil {
		t.Fatal("unknown metric did not error")
	}
}
