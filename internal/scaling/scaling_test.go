package scaling

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/mpi"
	"repro/internal/prog"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/structfile"
)

// scalableProg builds an SPMD program with one perfectly weak-scaling
// phase (fixed per-rank work) and one non-scaling phase whose per-rank
// work grows with the rank count (e.g. an all-to-all-like exchange).
func scalableProg(t *testing.T) *prog.Program {
	t.Helper()
	return prog.NewBuilder("scale").
		File("app.f90").
		Proc("compute", 10,
			prog.L(11, 100, prog.W(12, 100))).
		Proc("exchange", 20,
			// Work proportional to the number of ranks: scales badly.
			prog.Lx(21, prog.ScaledInt{X: nRanks{}, Num: 20, Den: 1},
				prog.W(22, 100))).
		Proc("main", 1,
			prog.C(2, "compute"),
			prog.C(3, "exchange"),
			prog.Sync(4)).
		Entry("main").MustBuild()
}

// nRanks evaluates to the rank count.
type nRanks struct{}

func (nRanks) Eval(p *prog.Params) int64 {
	if p == nil {
		return 1
	}
	return int64(p.NRanks)
}

// runResAt simulates the program at the given width and merges the first
// keep ranks (all of them when keep <= 0), mimicking a quarantining merge
// where some rank files were dropped.
func runResAt(t *testing.T, ranks, keep int) *merge.Result {
	t.Helper()
	im, err := lower.Lower(scalableProg(t), lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{NRanks: ranks, Events: []sampler.EventConfig{
		{Event: sim.EvCycles, Period: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if keep > 0 && keep < len(profs) {
		profs = profs[:keep]
	}
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runAt(t *testing.T, ranks int) *core.Tree {
	t.Helper()
	return runResAt(t, ranks, 0).Tree
}

func TestWeakScalingLossAttribution(t *testing.T) {
	small := runAt(t, 2)
	big := runAt(t, 8)
	res, err := Analyze(small, big, Config{
		Metric: "CYCLES", Mode: Weak, RanksSmall: 2, RanksBig: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// compute scales perfectly: its excess is ~0. exchange grows from
	// 40*100 to 160*100 cycles per rank: excess ~12000.
	comp := big.FindPath("main", "compute")
	exch := big.FindPath("main", "exchange")
	if comp == nil || exch == nil {
		t.Fatal("scopes missing")
	}
	if ex := comp.Incl.Get(res.Column); math.Abs(ex) > 500 {
		t.Fatalf("compute excess = %g, want ~0", ex)
	}
	exEx := exch.Incl.Get(res.Column)
	if exEx < 10000 || exEx > 14000 {
		t.Fatalf("exchange excess = %g, want ~12000", exEx)
	}
	// The loss hot path leads to exchange.
	path := core.HotPath(big.Root, res.Column, 0.5)
	found := false
	for _, n := range path {
		if n.Name.String() == "exchange" {
			found = true
		}
	}
	if !found {
		t.Fatalf("scaling-loss hot path missed exchange")
	}
	if res.LossFraction() <= 0 || res.LossFraction() >= 1 {
		t.Fatalf("loss fraction = %g", res.LossFraction())
	}
	if res.TotalExcess <= 0 {
		t.Fatal("no total excess")
	}
}

func TestStrongScalingExpectation(t *testing.T) {
	// Under strong scaling the expectation divides the small run's cost
	// by the parallelism ratio, so even the perfectly weak-scaling
	// compute phase shows loss (its total work did not shrink).
	small := runAt(t, 2)
	big := runAt(t, 8)
	res, err := Analyze(small, big, Config{
		Metric: "CYCLES", Mode: Strong, RanksSmall: 2, RanksBig: 8, Name: "strong loss",
	})
	if err != nil {
		t.Fatal(err)
	}
	comp := big.FindPath("main", "compute")
	// per-rank compute is 10000 cycles in both runs; strong expectation
	// is 10000/4 = 2500, so excess ~7500.
	if ex := comp.Incl.Get(res.Column); ex < 6500 || ex > 8500 {
		t.Fatalf("compute strong-scaling excess = %g, want ~7500", ex)
	}
}

// AnalyzeMerged takes the rank counts from the merges, so a merge that
// quarantined ranks normalizes by the ranks actually folded — identical to
// Analyze fed the post-quarantine counts explicitly.
func TestAnalyzeMergedUsesActualRankCounts(t *testing.T) {
	small := runResAt(t, 2, 0)
	// Two ranks of the 8-wide run were "quarantined".
	big := runResAt(t, 8, 6)
	if big.NRanks != 6 {
		t.Fatalf("NRanks = %d, want 6", big.NRanks)
	}
	res, err := AnalyzeMerged(small, big, Config{Metric: "CYCLES", Mode: Weak})
	if err != nil {
		t.Fatal(err)
	}
	ref := runResAt(t, 8, 6)
	refRes, err := Analyze(small.Tree, ref.Tree, Config{
		Metric: "CYCLES", Mode: Weak, RanksSmall: 2, RanksBig: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TotalExcess-refRes.TotalExcess) > 1e-9 {
		t.Fatalf("TotalExcess = %g, want %g", res.TotalExcess, refRes.TotalExcess)
	}
	exch := big.Tree.FindPath("main", "exchange")
	if exch == nil {
		t.Fatal("exchange missing")
	}
	// Per-rank exchange work is rank-count-proportional even in the
	// truncated merge: 160*100 − 40*100 = 12000 per rank.
	if ex := exch.Incl.Get(res.Column); ex < 10000 || ex > 14000 {
		t.Fatalf("exchange excess = %g, want ~12000", ex)
	}
	if _, err := AnalyzeMerged(nil, big, Config{}); err == nil {
		t.Fatal("nil result accepted")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	small := runAt(t, 2)
	big := runAt(t, 4)
	if _, err := Analyze(small, big, Config{Metric: "NOPE", RanksSmall: 2, RanksBig: 4}); err == nil {
		t.Fatal("missing metric accepted")
	}
	if _, err := Analyze(small, big, Config{RanksSmall: 0, RanksBig: 4}); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := Analyze(small, big, Config{RanksSmall: 2, RanksBig: 4, Name: "l"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(small, big, Config{RanksSmall: 2, RanksBig: 4, Name: "l"}); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestScopeOnlyInBigRun(t *testing.T) {
	// A scope absent from the small run contributes its full big-run
	// cost as excess.
	small := core.NewTree("s", nil)
	if _, err := small.Reg.AddRaw("CYCLES", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	sm := small.AddPath(core.Key{Kind: core.KindFrame, Name: core.Sym("main")})
	ss := sm.Child(core.Key{Kind: core.KindStmt, File: core.Sym("a.c"), Line: 1}, true)
	ss.Base.Add(0, 100)
	small.ComputeMetrics()

	big := core.NewTree("b", nil)
	if _, err := big.Reg.AddRaw("CYCLES", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	bm := big.AddPath(core.Key{Kind: core.KindFrame, Name: core.Sym("main")})
	bs := bm.Child(core.Key{Kind: core.KindStmt, File: core.Sym("a.c"), Line: 1}, true)
	bs.Base.Add(0, 100)
	extra := bm.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("newphase")}, true)
	es := extra.Child(core.Key{Kind: core.KindStmt, File: core.Sym("a.c"), Line: 9}, true)
	es.Base.Add(0, 50)
	big.ComputeMetrics()

	res, err := Analyze(small, big, Config{Metric: "CYCLES", Mode: Weak, RanksSmall: 1, RanksBig: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ex := extra.Incl.Get(res.Column); ex != 50 {
		t.Fatalf("new phase excess = %g, want 50", ex)
	}
	if ex := bs.Incl.Get(res.Column); ex != 0 {
		t.Fatalf("matched stmt excess = %g, want 0", ex)
	}
}

// wideTree builds a run whose scopes fan out past the child-index
// threshold: main calls 24 procedures, each with 12 statements. Every
// drop-th statement is left out, and costs scale with weight.
func wideTree(t *testing.T, drop int, weight float64) *core.Tree {
	t.Helper()
	tr := core.NewTree("wide", nil)
	if _, err := tr.Reg.AddRaw("CYCLES", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	main := tr.AddPath(core.Key{Kind: core.KindFrame, Name: core.Sym("main")})
	for p := 0; p < 24; p++ {
		fr := main.Child(core.Key{Kind: core.KindFrame, Name: core.Sym(fmt.Sprintf("proc%02d", p)), Line: p}, true)
		for l := 1; l <= 12; l++ {
			if (p*12+l)%drop == 0 {
				continue
			}
			st := fr.Child(core.Key{Kind: core.KindStmt, File: core.Sym("w.c"), Line: l}, true)
			st.Base.Add(0, weight*float64(p+l))
		}
	}
	tr.ComputeMetrics()
	return tr
}

// openV3 round-trips a tree through a v3 database file and returns the
// tree of an engine snapshot over it, with every column verified.
func openV3(t *testing.T, tr *core.Tree) *core.Tree {
	t.Helper()
	var buf bytes.Buffer
	if err := expdb.New(tr).WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.db")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := engine.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { snap.Close() })
	if err := snap.FaultAll(); err != nil {
		t.Fatal(err)
	}
	return snap.Tree()
}

// TestAnalyzeOpenedDatabases pins Analyze over decoded trees — which carry
// no child index — to Analyze over the in-memory trees they were written
// from, scope by scope, for a real scaling run and for wide scopes.
func TestAnalyzeOpenedDatabases(t *testing.T) {
	for _, c := range []struct {
		name       string
		small, big func() *core.Tree
		cfg        Config
		// spot is a scope present in both runs, with its expected excess.
		spot []string
		want float64
	}{
		{"scaling run", func() *core.Tree { return runAt(t, 2) }, func() *core.Tree { return runAt(t, 8) },
			Config{Mode: Weak, RanksSmall: 2, RanksBig: 8}, nil, 0},
		// Strong scaling from 1 to 3 ranks: main/proc00/line 1 costs 3 in
		// the big run and 1 in the small one, so its excess is 3/3 - 1/3.
		{"wide scopes", func() *core.Tree { return wideTree(t, 5, 1) }, func() *core.Tree { return wideTree(t, 7, 3) },
			Config{Mode: Strong, RanksSmall: 1, RanksBig: 3}, []string{"main", "proc00", "w.c: 1"}, 2.0 / 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			small, big := c.small(), c.big()
			oSmall, oBig := openV3(t, small), openV3(t, big)
			want, err := Analyze(small, big, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Analyze(oSmall, oBig, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Fatalf("opened result %+v, in-memory %+v", *got, *want)
			}
			if c.spot != nil {
				n := oBig.FindPath(c.spot...)
				if n == nil {
					t.Fatalf("%v missing", c.spot)
				}
				if ex := n.Incl.Get(got.Column); math.Abs(ex-c.want) > 1e-12 {
					t.Fatalf("%v: excess %g, want %g", c.spot, ex, c.want)
				}
			}
			var wantRows, gotRows []*core.Node
			core.Walk(big.Root, func(n *core.Node) bool { wantRows = append(wantRows, n); return true })
			core.Walk(oBig.Root, func(n *core.Node) bool { gotRows = append(gotRows, n); return true })
			if len(gotRows) != len(wantRows) {
				t.Fatalf("opened tree has %d scopes, in-memory %d", len(gotRows), len(wantRows))
			}
			for i, w := range wantRows {
				g := gotRows[i]
				if g.Key != w.Key || g.Incl.Get(got.Column) != w.Incl.Get(want.Column) ||
					g.Excl.Get(got.Column) != w.Excl.Get(want.Column) {
					t.Fatalf("scope %d (%s): opened excess %g/%g, in-memory %g/%g", i, w.Label(),
						g.Incl.Get(got.Column), g.Excl.Get(got.Column), w.Incl.Get(want.Column), w.Excl.Get(want.Column))
				}
			}
		})
	}
}
