// Package scaling implements the scalability analysis the paper
// demonstrates in Section VI-A: "we compute a derived metric that
// quantifies scaling loss by scaling and differencing call path profiles
// from a pair of executions" (after Coarfa et al., ICS'07).
//
// Given two experiments of the same program at different scales, the
// *excess work* of a scope under weak scaling is
//
//	excess(s) = cost_big(s) − cost_small(s)
//
// (per-rank averages; ideal weak scaling keeps per-rank cost constant),
// and under strong scaling
//
//	excess(s) = cost_big(s) − cost_small(s) × (ranks_small / ranks_big)
//
// (total cost should shrink proportionally to the added parallelism).
// Scopes are matched structurally between the two trees; the result is a
// new derived column on the big run's tree, so scaling loss sorts, renders
// and hot-paths like any other metric — exactly the paper's point about
// derived metrics focusing attention on inefficiency rather than raw cost.
package scaling

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/merge"
)

// Mode selects the scaling expectation.
type Mode uint8

const (
	// Weak scaling: per-rank work should stay constant as ranks grow.
	Weak Mode = iota
	// Strong scaling: total work should stay constant as ranks grow, so
	// per-rank cost should shrink by ranksSmall/ranksBig.
	Strong
)

// wideScope is the fan-out past which the matched walk looks a scope's
// children up in a map rather than by scanning (core's child-index
// threshold).
const wideScope = 8

func (m Mode) String() string {
	if m == Strong {
		return "strong"
	}
	return "weak"
}

// Config describes the pair of executions being compared.
type Config struct {
	// Metric is the cost column name present in both trees (e.g.
	// "CYCLES").
	Metric string
	// Mode selects the scaling expectation.
	Mode Mode
	// RanksSmall and RanksBig are the process counts of the two runs.
	RanksSmall, RanksBig int
	// Name is the derived column name (default "scaling loss").
	Name string
}

// Result reports where scalability was lost.
type Result struct {
	// Column is the new column ID on the big tree holding per-scope
	// excess work (inclusive and exclusive flavors).
	Column int
	// TotalExcess is the root's inclusive excess.
	TotalExcess float64
	// TotalCost is the big run's root inclusive cost, for normalizing.
	TotalCost float64
}

// LossFraction is the fraction of the big run's cost that is scaling loss.
func (r *Result) LossFraction() float64 {
	if r.TotalCost == 0 {
		return 0
	}
	return r.TotalExcess / r.TotalCost
}

// AnalyzeMerged compares two merge results, taking the rank counts from
// the merges themselves rather than from cfg. After a quarantining
// (-keep-going) merge, NRanks counts only the ranks actually folded, so
// the per-rank normalization stays correct even when some measurement
// files were dropped. Any rank counts set in cfg are overridden.
func AnalyzeMerged(small, big *merge.Result, cfg Config) (*Result, error) {
	if small == nil || big == nil {
		return nil, fmt.Errorf("scaling: nil merge result")
	}
	cfg.RanksSmall = small.NRanks
	cfg.RanksBig = big.NRanks
	return Analyze(small.Tree, big.Tree, cfg)
}

// Analyze annotates big's tree with the excess-work column. Both trees
// must carry the configured metric; the trees are matched scope-by-scope
// from the roots (scopes present in only one run contribute their full
// cost, with the expected sign).
func Analyze(small, big *core.Tree, cfg Config) (*Result, error) {
	if cfg.Metric == "" {
		cfg.Metric = "CYCLES"
	}
	if cfg.Name == "" {
		cfg.Name = "scaling loss"
	}
	if cfg.RanksSmall <= 0 || cfg.RanksBig <= 0 {
		return nil, fmt.Errorf("scaling: rank counts must be positive (got %d, %d)", cfg.RanksSmall, cfg.RanksBig)
	}
	ds := small.Reg.ByName(cfg.Metric)
	db := big.Reg.ByName(cfg.Metric)
	if ds == nil || db == nil {
		return nil, fmt.Errorf("scaling: metric %q missing from one of the runs", cfg.Metric)
	}
	if big.Reg.ByName(cfg.Name) != nil {
		return nil, fmt.Errorf("scaling: column %q already exists", cfg.Name)
	}

	// The expectation factor applied to the small run's per-rank cost.
	factor := 1.0
	if cfg.Mode == Strong {
		factor = float64(cfg.RanksSmall) / float64(cfg.RanksBig)
	}
	// Costs are normalized to per-rank averages so runs of different
	// widths compare; merged trees hold rank sums.
	normSmall := 1.0 / float64(cfg.RanksSmall)
	normBig := 1.0 / float64(cfg.RanksBig)

	// Computed columns carry externally filled values; the experiment
	// database serializes them verbatim instead of recomputing.
	col, err := big.Reg.AddComputed(cfg.Name, db.Unit)
	if err != nil {
		return nil, err
	}

	// Matched walk: compute excess per scope. Decoded trees carry no child
	// index, so sn.Child scans; past wideScope children the small tree's
	// siblings go into one reused map instead. Each scope's matches are
	// found before descending, so the map is free again for the children.
	var (
		sibs    = map[core.Key]*core.Node{}
		matches []*core.Node // stack of per-level match lists
	)
	var walk func(bn, sn *core.Node)
	walk = func(bn, sn *core.Node) {
		if bn.Kind != core.KindRoot {
			var sIncl, sExcl float64
			if sn != nil {
				sIncl = sn.Incl.Get(ds.ID)
				sExcl = sn.Excl.Get(ds.ID)
			}
			exIncl := bn.Incl.Get(db.ID)*normBig - sIncl*normSmall*factor
			exExcl := bn.Excl.Get(db.ID)*normBig - sExcl*normSmall*factor
			bn.Incl.Set(col.ID, exIncl)
			bn.Excl.Set(col.ID, exExcl)
		}
		base := len(matches)
		wide := sn != nil && len(sn.Children) > wideScope
		if wide {
			for _, sc := range sn.Children {
				sibs[sc.Key] = sc
			}
		}
		for _, bc := range bn.Children {
			var sc *core.Node
			if wide {
				sc = sibs[bc.Key]
			} else if sn != nil {
				sc = sn.Child(bc.Key, false)
			}
			matches = append(matches, sc)
		}
		if wide {
			// Deleting costs the scope's fan-out; clear would cost the
			// widest scope's seen so far.
			for _, sc := range sn.Children {
				delete(sibs, sc.Key)
			}
		}
		for i, bc := range bn.Children {
			walk(bc, matches[base+i])
		}
		matches = matches[:base]
	}
	walk(big.Root, small.Root)

	// Root totals for normalization.
	var totalExcess float64
	for _, c := range big.Root.Children {
		totalExcess += c.Incl.Get(col.ID)
	}
	big.Root.Incl.Set(col.ID, totalExcess)

	return &Result{
		Column:      col.ID,
		TotalExcess: totalExcess,
		TotalCost:   big.Total(db.ID) * normBig,
	}, nil
}
