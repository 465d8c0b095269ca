// Package render is the presentation layer standing in for hpcviewer's
// Eclipse GUI: a deterministic tree-tabular renderer over the views of
// internal/core. It implements the presentation principles of Sections V
// and VII that are testable in text form:
//
//   - navigation pane plus metric pane, one scope per line, with call site
//     and callee fused on a single line;
//   - every sibling list sorted by the selected (possibly derived) metric;
//   - scientific notation with a percent-of-total annotation ("1.25e+04
//     41.4%") instead of "naively long and painful numbers";
//   - blank cells for zero values;
//   - sparse presentation: scopes without data never appear (they are
//     never created — see internal/metric's sparse vectors);
//   - depth and top-N truncation with explicit elision markers, and
//     hot-path highlighting.
package render

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/metric"
)

// Column selects one metric column and flavor for the metric pane.
type Column struct {
	// MetricID is the registry column.
	MetricID int
	// Inclusive selects the inclusive flavor; otherwise exclusive.
	Inclusive bool
}

// Options controls rendering.
type Options struct {
	// Columns lists the metric pane's columns; nil renders every
	// registry column as an (inclusive, exclusive) pair.
	Columns []Column
	// Sort orders each sibling list; the zero value sorts by column 0
	// inclusive, descending — hpcviewer's default.
	Sort core.SortSpec
	// NoSort preserves the existing child order.
	NoSort bool
	// MaxDepth bounds the rendered depth (0 = unlimited).
	MaxDepth int
	// TopN bounds children shown per scope, eliding the rest with a
	// summary line (0 = all).
	TopN int
	// Totals supplies the percent denominators per metric column; if
	// nil, percent annotations are omitted.
	Totals func(metricID int) float64
	// Highlight marks scopes (e.g. a hot path) with a leading marker.
	Highlight map[*core.Node]bool
	// Value, when non-nil, supplies every metric cell instead of the
	// node's own Incl/Excl views. Sessions overlaying private derived
	// columns on a shared database route cell reads through it; for
	// columns resident in the node's store it must return exactly
	// n.Incl.Get / n.Excl.Get, keeping output byte-identical.
	Value func(n *core.Node, metricID int, inclusive bool) float64
}

// value reads one metric cell, via the Value override when set.
func (o *Options) value(n *core.Node, metricID int, inclusive bool) float64 {
	if o.Value != nil {
		return o.Value(n, metricID, inclusive)
	}
	if inclusive {
		return n.Incl.Get(metricID)
	}
	return n.Excl.Get(metricID)
}

// Render writes the forest as a tree table.
func Render(w io.Writer, roots []*core.Node, reg *metric.Registry, opt Options) error {
	cols := opt.Columns
	if cols == nil {
		for _, d := range reg.Columns() {
			cols = append(cols, Column{MetricID: d.ID, Inclusive: true}, Column{MetricID: d.ID, Inclusive: false})
		}
	}
	r := renderer{w: w, reg: reg, opt: opt, cols: cols}
	if err := r.header(); err != nil {
		return err
	}
	scopes := append([]*core.Node(nil), roots...)
	if !opt.NoSort {
		core.SortScopes(scopes, opt.Sort)
	}
	for _, s := range scopes {
		if err := r.node(s, 0); err != nil {
			return err
		}
	}
	return nil
}

// RenderTree renders a CCT from its root's children with percent
// denominators taken from the root (the Calling Context View).
func RenderTree(w io.Writer, t *core.Tree, opt Options) error {
	if opt.Totals == nil {
		opt.Totals = t.Total
	}
	return Render(w, t.Root.Children, t.Reg, opt)
}

// RenderCallers expands (concurrently, one goroutine per CPU) and renders
// a Callers View. totals should come from the originating tree.
func RenderCallers(w io.Writer, v *core.CallersView, t *core.Tree, opt Options) error {
	if err := v.ExpandAllParallel(0); err != nil {
		return err
	}
	if opt.Totals == nil {
		opt.Totals = t.Total
	}
	return Render(w, v.Roots, v.Reg, opt)
}

// RenderFlat renders a Flat View.
func RenderFlat(w io.Writer, v *core.FlatView, t *core.Tree, opt Options) error {
	if opt.Totals == nil {
		opt.Totals = t.Total
	}
	return Render(w, v.Roots, v.Reg, opt)
}

const (
	cellWidth  = 17 // "1.25e+04  41.4%"
	labelWidth = 44
)

// Row is one visible line of a view: a scope at a display depth. The
// interactive session (internal/engine) computes visibility itself —
// expansion state, zooming, flattening — and hands rows here for
// formatting.
type Row struct {
	Node *core.Node
	// Depth is the indentation level.
	Depth int
	// HasHidden marks scopes whose children are currently collapsed;
	// rendered with a '+' expander like a closed tree node.
	HasHidden bool
}

// RenderRows writes a header and the given rows without any recursion,
// sorting or truncation of its own.
func RenderRows(w io.Writer, rows []Row, reg *metric.Registry, opt Options) error {
	cols := opt.Columns
	if cols == nil {
		for _, d := range reg.Columns() {
			cols = append(cols, Column{MetricID: d.ID, Inclusive: true}, Column{MetricID: d.ID, Inclusive: false})
		}
	}
	r := renderer{w: w, reg: reg, opt: opt, cols: cols}
	if err := r.header(); err != nil {
		return err
	}
	for i, row := range rows {
		if err := r.row(i, row); err != nil {
			return err
		}
	}
	return nil
}

// row writes one numbered line (the interactive session addresses scopes
// by these numbers).
func (r *renderer) row(idx int, row Row) error {
	var b strings.Builder
	mark := " "
	if r.opt.Highlight[row.Node] {
		mark = "*"
	}
	expander := " "
	if row.HasHidden {
		expander = "+"
	}
	label := fmt.Sprintf("%3d %s%s%s%s%s", idx, mark, strings.Repeat("  ", row.Depth), expander, glyph(row.Node), row.Node.Label())
	if row.Node.NoSource && (row.Node.Kind == core.KindFrame || row.Node.Kind == core.KindProc || row.Node.Kind == core.KindCallSite) {
		label += " [bin]"
	}
	fmt.Fprintf(&b, "%-*s", labelWidth, trunc(label, labelWidth))
	for _, c := range r.cols {
		v := r.opt.value(row.Node, c.MetricID, c.Inclusive)
		fmt.Fprintf(&b, " %*s", cellWidth, r.cell(c.MetricID, v))
	}
	_, err := io.WriteString(r.w, strings.TrimRight(b.String(), " ")+"\n")
	return err
}

type renderer struct {
	w    io.Writer
	reg  *metric.Registry
	opt  Options
	cols []Column
}

func (r *renderer) header() error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", labelWidth, "scope")
	for _, c := range r.cols {
		d := r.reg.ByID(c.MetricID)
		name := "?"
		if d != nil {
			name = d.Name
		}
		flavor := "(E)"
		if c.Inclusive {
			flavor = "(I)"
		}
		fmt.Fprintf(&b, " %*s", cellWidth, trunc(name+" "+flavor, cellWidth))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", labelWidth+(cellWidth+1)*len(r.cols)))
	_, err := io.WriteString(r.w, b.String())
	return err
}

func (r *renderer) node(n *core.Node, depth int) error {
	if r.opt.MaxDepth > 0 && depth >= r.opt.MaxDepth {
		return nil
	}
	var b strings.Builder

	mark := " "
	if r.opt.Highlight[n] {
		mark = "*"
	}
	label := mark + strings.Repeat("  ", depth) + glyph(n) + n.Label()
	if n.NoSource && (n.Kind == core.KindFrame || n.Kind == core.KindProc || n.Kind == core.KindCallSite) {
		label += " [bin]"
	}
	fmt.Fprintf(&b, "%-*s", labelWidth, trunc(label, labelWidth))

	for _, c := range r.cols {
		v := r.opt.value(n, c.MetricID, c.Inclusive)
		fmt.Fprintf(&b, " %*s", cellWidth, r.cell(c.MetricID, v))
	}
	line := strings.TrimRight(b.String(), " ") + "\n"
	if _, err := io.WriteString(r.w, line); err != nil {
		return err
	}

	kids := append([]*core.Node(nil), n.Children...)
	if !r.opt.NoSort {
		core.SortScopes(kids, r.opt.Sort)
	}
	shown := kids
	if r.opt.TopN > 0 && len(kids) > r.opt.TopN {
		shown = kids[:r.opt.TopN]
	}
	for _, c := range shown {
		if err := r.node(c, depth+1); err != nil {
			return err
		}
	}
	if len(shown) < len(kids) {
		if r.opt.MaxDepth == 0 || depth+1 < r.opt.MaxDepth {
			elide := fmt.Sprintf(" %s... (%d more)", strings.Repeat("  ", depth+1), len(kids)-len(shown))
			if _, err := fmt.Fprintf(r.w, "%s\n", elide); err != nil {
				return err
			}
		}
	}
	return nil
}

// glyph prefixes dynamic rows with the call-site marker, echoing
// hpcviewer's "box with a right-facing arrow" icon (Section V-B).
func glyph(n *core.Node) string {
	switch n.Kind {
	case core.KindFrame:
		if n.CallLine > 0 {
			return "=> "
		}
		return ""
	case core.KindCallSite:
		return "=> "
	}
	return ""
}

// cell formats one metric value: blank when zero (Section V-A), otherwise
// scientific notation plus percent-of-total when a denominator exists.
func (r *renderer) cell(metricID int, v float64) string {
	if v == 0 {
		return ""
	}
	s := FormatValue(v)
	if r.opt.Totals != nil {
		d := r.reg.ByID(metricID)
		if d != nil && d.ShowPercent {
			if tot := r.opt.Totals(metricID); tot != 0 {
				s += fmt.Sprintf(" %5.1f%%", 100*v/tot)
			}
		}
	}
	return s
}

// FormatValue renders a metric value "with scientific notation with simple
// and intuitively readable format" (Section V-A).
func FormatValue(v float64) string {
	if v == 0 {
		return ""
	}
	a := math.Abs(v)
	if a >= 1e4 || a < 1e-2 {
		return fmt.Sprintf("%.2e", v)
	}
	if v == math.Trunc(v) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	if n <= 3 {
		return s[:n]
	}
	return s[:n-3] + "..."
}
