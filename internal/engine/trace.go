package engine

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/trace"
)

// The trace command renders hpctraceviewer's time×rank canvas as text:
// one row per rank, one character per time cell, colored by call-path
// depth (deeper = busier). Rendering is O(W·H) over the database's zoom
// pyramid regardless of how many trace events were captured.

// depthChar maps a cell's call-path depth to its glyph: '.' for empty
// cells, '0'-'9' then 'a'-'z' for depths, saturating at 'z'.
func depthChar(c trace.Cell) byte {
	if c.Empty() {
		return '.'
	}
	d := int(c.Depth)
	switch {
	case d < 10:
		return byte('0' + d)
	case d < 36:
		return byte('a' + d - 10)
	}
	return 'z'
}

// RenderTrace renders the time×rank view for [t0,t1) (t1=0 means the full
// span) at w×h cells, followed by a legend of the top call paths by
// samples shown. The output is a pure function of the database bytes and
// the arguments, so concurrent sessions render byte-identically.
func (s *Session) RenderTrace(out io.Writer, t0, t1 uint64, w, h int) error {
	tv, err := s.snap.Trace()
	if err != nil {
		return err
	}
	if tv == nil || len(tv.TraceRanks()) == 0 {
		return fmt.Errorf("no trace data in this database (capture with hpcrun -trace, merge with hpcprof -traces)")
	}
	g, err := trace.View(tv, t0, t1, nil, w, h)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trace [%d,%d) %dx%d cells, %d ranks\n", g.T0, g.T1, g.W, g.H, len(g.Ranks))
	samples := map[uint32]uint64{}
	for y := 0; y < g.H; y++ {
		line := make([]byte, g.W)
		for x := 0; x < g.W; x++ {
			c := g.At(x, y)
			line[x] = depthChar(c)
			if !c.Empty() {
				samples[c.CPID] += uint64(c.Samples)
			}
		}
		fmt.Fprintf(out, "rank %4d |%s|\n", g.Ranks[y], line)
	}

	type entry struct {
		cpid  uint32
		count uint64
	}
	top := make([]entry, 0, len(samples))
	for id, n := range samples {
		top = append(top, entry{id, n})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].count != top[j].count {
			return top[i].count > top[j].count
		}
		return top[i].cpid < top[j].cpid
	})
	if len(top) > 5 {
		top = top[:5]
	}
	if len(top) > 0 {
		fmt.Fprintln(out, "top call paths shown:")
		for _, e := range top {
			label := "?"
			if n := s.snap.NodeAt(int(e.cpid)); n != nil {
				label = n.Label()
			}
			fmt.Fprintf(out, "  %8d samples  %s\n", e.count, label)
		}
	}
	return nil
}
