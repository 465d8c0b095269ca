package trace

import (
	"fmt"
	"math/bits"
	"sort"
)

// Source hands the view kernel one experiment's pyramids. Implementations
// (the mapped database, in-memory tests) expose each rank's levels as
// plain bucket slices — for a mapped file those are zero-copy views of the
// pyramid sections.
type Source interface {
	// TraceRanks lists the ranks with trace data, ascending.
	TraceRanks() []int
	// TraceMeta returns the rank's geometry; ok is false for ranks
	// without trace data (never in TraceRanks, or dropped after damage).
	TraceMeta(rank int) (Meta, bool)
	// TraceLevel returns pyramid level l (0 = finest) for the rank, or
	// nil when unavailable.
	TraceLevel(rank, level int) []Bucket
}

// Cell is one rendered pixel of the time×rank grid.
type Cell struct {
	CPID    uint32 // EmptyCPID when no samples land in the cell
	Depth   uint16
	Samples uint16 // saturating
}

// Grid is the result of a View call: H rank rows × W time columns of
// representative call paths, row-major.
type Grid struct {
	T0, T1 uint64
	W, H   int
	Ranks  []int // the rank rendered by each row, len H
	Cells  []Cell
}

// At returns the cell at time column x, rank row y.
func (g *Grid) At(x, y int) Cell { return g.Cells[y*g.W+x] }

// Empty reports whether no samples landed in the cell.
func (c Cell) Empty() bool { return c.CPID == EmptyCPID }

// MaxViewPixels bounds a single render request; the limit exists so a
// hostile HTTP query cannot ask for a multi-gigabyte grid.
const MaxViewPixels = 1 << 22

// View renders the time window [t0, t1) across ranks into a W×H grid in
// O(W·H) time, independent of how many events were recorded:
//
//   - Each rank row picks the coarsest pyramid level whose bucket width
//     still resolves one cell, so a cell merges O(1) buckets; across a
//     row the merged buckets total ≤ level size + 2W, which the level
//     choice keeps at O(W).
//   - When the window out-zooms the base resolution, cells sample-and-hold
//     the finest bucket at the cell midpoint — still O(1) per cell.
//   - When H < len(ranks), rows subsample the rank list; when H ≥
//     len(ranks) the grid shrinks to one row per rank (no upsampling).
//
// ranks nil means all ranks in the source. t1 must exceed t0; a zero t1
// means "through the latest event of the selected ranks".
func View(src Source, t0, t1 uint64, ranks []int, W, H int) (*Grid, error) {
	if W <= 0 {
		return nil, fmt.Errorf("trace: view width %d", W)
	}
	if ranks == nil {
		ranks = src.TraceRanks()
	}
	// Filter into a fresh slice: neither the caller's ranks nor the
	// source's (shared by concurrent renders) may be written.
	keep := make([]int, 0, len(ranks))
	for _, r := range ranks {
		if _, ok := src.TraceMeta(r); ok {
			keep = append(keep, r)
		}
	}
	sort.Ints(keep)
	ranks = keep
	if len(ranks) == 0 {
		return nil, fmt.Errorf("trace: no ranks with trace data")
	}
	if t1 == 0 {
		for _, r := range ranks {
			if m, ok := src.TraceMeta(r); ok && m.LastT+1 > t1 {
				t1 = m.LastT + 1
			}
		}
	}
	if t1 <= t0 {
		return nil, fmt.Errorf("trace: empty time window [%d, %d)", t0, t1)
	}
	if H <= 0 || H > len(ranks) {
		H = len(ranks)
	}
	if W*H > MaxViewPixels {
		return nil, fmt.Errorf("trace: view %d×%d exceeds pixel budget %d", W, H, MaxViewPixels)
	}
	g := &Grid{T0: t0, T1: t1, W: W, H: H, Ranks: make([]int, H), Cells: make([]Cell, W*H)}
	span := t1 - t0
	for y := 0; y < H; y++ {
		rank := ranks[y*len(ranks)/H]
		g.Ranks[y] = rank
		meta, _ := src.TraceMeta(rank)
		renderRow(src, meta, t0, span, g.Cells[y*W:(y+1)*W])
	}
	return g, nil
}

// renderRow fills one rank's W cells.
func renderRow(src Source, meta Meta, t0, span uint64, row []Cell) {
	W := uint64(len(row))
	for i := range row {
		row[i].CPID = EmptyCPID
	}
	if meta.NBuckets == 0 {
		return
	}
	cellW := span / W // floor; per-cell bounds are computed exactly below
	if cellW == 0 {
		cellW = 1
	}
	// Coarsest level whose buckets still resolve one cell: width(l) =
	// Width<<l ≤ cellW. Clamped to the levels that exist.
	level := 0
	if cellW > meta.Width {
		level = bits.Len64(cellW/meta.Width) - 1
	}
	if max := meta.Levels() - 1; level > max {
		level = max
	}
	buckets := src.TraceLevel(meta.Rank, level)
	if buckets == nil {
		return
	}
	bw := meta.Width << uint(level)
	for i := uint64(0); i < W; i++ {
		// Exact cell bounds via 128-bit products: lo = t0 + i·span/W.
		lo := t0 + mulDiv(i, span, W)
		hi := t0 + mulDiv(i+1, span, W)
		if hi <= lo {
			hi = lo + 1
		}
		var c Cell
		if cellW < meta.Width {
			// Below base resolution: sample-and-hold the finest bucket
			// at the cell midpoint, so zooming past the data repeats it
			// instead of fabricating detail.
			mid := lo + (hi-lo)/2
			b := mid / bw
			c.CPID = EmptyCPID
			if b < uint64(len(buckets)) && !buckets[b].Empty() {
				c = Cell(buckets[b])
			}
		} else {
			c = mergeSpan(buckets, lo, hi, bw)
		}
		row[i] = c
	}
}

// mergeSpan folds the buckets overlapping [lo, hi) into one cell. The
// caller's level choice bounds the bucket count per cell at O(1) amortized
// across the row.
func mergeSpan(buckets []Bucket, lo, hi, bw uint64) Cell {
	c := Cell{CPID: EmptyCPID}
	b0 := lo / bw
	b1 := (hi - 1) / bw
	if b0 >= uint64(len(buckets)) {
		return c
	}
	if b1 >= uint64(len(buckets)) {
		b1 = uint64(len(buckets)) - 1
	}
	acc := Bucket{CPID: EmptyCPID}
	for b := b0; b <= b1; b++ {
		acc = MergeBucket(acc, buckets[b])
	}
	if acc.Empty() {
		return c
	}
	return Cell(acc)
}

// mulDiv computes a·b/c without overflow for any a·b up to 2^128.
func mulDiv(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	q, _ := bits.Div64(hi, lo, c)
	return q
}
