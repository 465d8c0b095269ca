// Package merge combines per-rank call path profiles into one canonical
// tree with per-scope summary statistics, implementing the paper's
// finalization step (Section IV-A step 3) and the scalability strategy of
// Section VII: instead of keeping one metric column per process in memory,
// each rank's profile is folded into streaming accumulators (mean, min,
// max, standard deviation) and discarded.
//
// Merging is parallel by default: ranks are split into contiguous shards,
// each folded into a private Accumulator by one worker, and the shards are
// combined with a pairwise tree reduction (Accumulator.Merge) that sums
// metric columns and summary-statistic moments — see parallel.go.
package merge

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/metric"
	"repro/internal/profile"
	"repro/internal/structfile"
)

// Result is a merged experiment: the summed tree plus per-scope summary
// accumulators over ranks.
type Result struct {
	// Tree holds summed raw metrics over all ranks.
	Tree *core.Tree
	// NRanks is the number of profiles merged.
	NRanks int

	// stats[col][row] accumulates the per-rank inclusive values of raw
	// column col at the scope with dense row id row — column-major like the
	// tree's metric store, so the fold indexes a slab instead of hashing a
	// per-node map, and summary sweeps run over contiguous memory.
	stats [][]metric.Stats
	// seen[row] records that the scope appeared in at least one rank (every
	// folded scope; distinguishes them from rows that only exist because a
	// slab grew past them).
	seen []bool
	raw  int // number of raw columns covered by stats
}

// statsAt returns the accumulator cell for (col, row), growing the column
// slab as needed. The pointer is valid until the slab next grows.
func (r *Result) statsAt(col int, row int32) *metric.Stats {
	for col >= len(r.stats) {
		r.stats = append(r.stats, nil)
	}
	s := r.stats[col]
	if n := int(row) + 1; n > len(s) {
		if n > cap(s) {
			c := 2 * cap(s)
			if c < 64 {
				c = 64
			}
			if c < n {
				c = n
			}
			grown := make([]metric.Stats, n, c)
			copy(grown, s)
			s = grown
		} else {
			s = s[:n]
		}
		r.stats[col] = s
	}
	return &s[row]
}

func (r *Result) markSeen(row int32) {
	if n := int(row) + 1; n > len(r.seen) {
		if n > cap(r.seen) {
			c := 2 * cap(r.seen)
			if c < 64 {
				c = 64
			}
			if c < n {
				c = n
			}
			grown := make([]bool, n, c)
			copy(grown, r.seen)
			r.seen = grown
		} else {
			r.seen = r.seen[:n]
		}
	}
	r.seen[row] = true
}

// Accumulator merges profiles one at a time: feed each rank's profile with
// Add and call Finish once. Only the accumulated tree and O(scopes ×
// metrics) statistics ever stay resident — the streaming shape Section IX
// asks for ("need not have data for all processes resident in memory at
// once"); cmd/hpcprof reads, adds and discards one measurement file at a
// time.
type Accumulator struct {
	doc *structfile.Doc
	res *Result
}

// NewAccumulator prepares a streaming merge against one structure
// document.
func NewAccumulator(doc *structfile.Doc) *Accumulator {
	return &Accumulator{
		doc: doc,
		res: &Result{Tree: core.NewTree("", metric.NewRegistry())},
	}
}

// Add correlates one profile and folds it into the accumulated result; the
// profile can be released afterwards.
func (a *Accumulator) Add(p *profile.Profile) error {
	if a.res == nil {
		return fmt.Errorf("merge: accumulator already finished")
	}
	if a.res.Tree.Program == "" {
		a.res.Tree.Program = p.Program
	}
	rankTree, err := correlate.Correlate(a.doc, p)
	if err != nil {
		return err
	}
	if err := a.res.fold(rankTree); err != nil {
		return err
	}
	a.res.NRanks++
	return nil
}

// Finish pads statistics for scopes absent from some ranks, computes the
// presented metrics, and returns the result. The accumulator cannot be
// reused.
func (a *Accumulator) Finish() (*Result, error) {
	if a.res == nil {
		return nil, fmt.Errorf("merge: accumulator already finished")
	}
	if a.res.NRanks == 0 {
		return nil, fmt.Errorf("merge: no profiles")
	}
	res := a.res
	a.res = nil
	// Scopes missing from some ranks observed zero there: pad every raw
	// column of every seen row up to the rank count, one contiguous column
	// at a time.
	for c := 0; c < res.raw; c++ {
		for row := range res.seen {
			if !res.seen[row] {
				continue
			}
			st := res.statsAt(c, int32(row))
			for st.N < int64(res.NRanks) {
				st.Observe(0)
			}
		}
	}
	res.Tree.ComputeMetrics()
	return res, nil
}

// Profiles correlates each profile against the structure document and
// merges them (the non-streaming convenience over Accumulator), using the
// parallel shard/reduce pipeline with one worker per CPU. Use ProfilesJobs
// to control the worker count.
func Profiles(doc *structfile.Doc, profs []*profile.Profile) (*Result, error) {
	return ProfilesJobs(doc, profs, 0)
}

// fold merges one rank's tree into the accumulator.
func (r *Result) fold(rank *core.Tree) error {
	// Map the rank's columns into the accumulator registry by name.
	cols := make([]int, rank.Reg.Len())
	for i, d := range rank.Reg.Columns() {
		if d.Kind != metric.Raw {
			continue
		}
		if acc := r.Tree.Reg.ByName(d.Name); acc != nil {
			cols[i] = acc.ID
			continue
		}
		nd, err := r.Tree.Reg.AddRaw(d.Name, d.Unit, d.Period)
		if err != nil {
			return err
		}
		cols[i] = nd.ID
	}
	if n := r.Tree.Reg.Len(); n > r.raw {
		r.raw = n
	}

	var walk func(accParent *core.Node, n *core.Node)
	walk = func(accParent *core.Node, n *core.Node) {
		acc := accParent
		if n.Kind != core.KindRoot {
			acc = accParent.Child(n.Key, true)
			acc.NoSource = n.NoSource
			acc.Mod = n.Mod
			if acc.CallLine == 0 {
				acc.CallLine = n.CallLine
				acc.CallFile = n.CallFile
			}
			n.Base.Range(func(id int, v float64) {
				acc.Base.Add(cols[id], v)
			})
			// Observe this rank's inclusive values. Ranks where the
			// scope is absent are padded with zeros afterwards.
			row := acc.Base.Row()
			r.markSeen(row)
			n.Incl.Range(func(id int, v float64) {
				r.statsAt(cols[id], row).Observe(v)
			})
		}
		for _, c := range n.Children {
			walk(acc, c)
		}
	}
	walk(r.Tree.Root, rank.Root)
	return nil
}

// Stats returns the per-rank statistics of raw column col at node (the
// zero Stats when the scope never appeared, or is not a scope of this
// result's tree).
func (r *Result) Stats(n *core.Node, col int) metric.Stats {
	if col < 0 || col >= len(r.stats) || n.Base.Store() != r.Tree.MetricStore() {
		return metric.Stats{}
	}
	s := r.stats[col]
	row := int(n.Base.Row())
	if row >= len(s) {
		return metric.Stats{}
	}
	return s[row]
}

// AddSummaries registers summary columns (e.g. mean/min/max/stddev of
// CYCLES across ranks) and writes their values into each scope's inclusive
// vector, where the views and the renderer pick them up like any other
// column.
func (r *Result) AddSummaries(src int, ops ...metric.SummaryOp) error {
	st := r.Tree.MetricStore()
	for _, op := range ops {
		d, err := r.Tree.Reg.AddSummary(src, op)
		if err != nil {
			return err
		}
		if src < 0 || src >= len(r.stats) {
			// No per-rank statistics: the summary column stays blank.
			continue
		}
		// Columnar sweep: the source statistics and the destination
		// inclusive column are both row-indexed slabs. Only seen rows can
		// hold statistics; the root row is never seen.
		out := st.Col(metric.PlaneIncl, d.ID)
		for row, ss := range r.stats[src] {
			if row < len(r.seen) && r.seen[row] {
				if v := ss.Value(d.Op); v != 0 {
					out[row] = v
				}
			}
		}
	}
	return nil
}

// ImbalanceFactor reports max/mean - 1 of raw column col at node across
// ranks.
func (r *Result) ImbalanceFactor(n *core.Node, col int) float64 {
	st := r.Stats(n, col)
	return st.ImbalanceFactor()
}
