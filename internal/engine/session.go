package engine

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/imbalance"
	"repro/internal/metric"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/render"
	"repro/internal/structfile"
)

// ViewKind selects the active view.
type ViewKind uint8

const (
	// ViewCC is the Calling Context View.
	ViewCC ViewKind = iota
	// ViewCallers is the bottom-up Callers View.
	ViewCallers
	// ViewFlat is the static Flat View.
	ViewFlat
)

func (v ViewKind) String() string {
	switch v {
	case ViewCC:
		return "calling-context"
	case ViewCallers:
		return "callers"
	case ViewFlat:
		return "flat"
	}
	return fmt.Sprintf("ViewKind(%d)", uint8(v))
}

// Session is one user's interactive presentation of a shared snapshot: the
// stateful equivalent of hpcviewer's GUI, driven programmatically, from
// the hpcviewer REPL, or over HTTP by hpcserver.
//
// Concurrency: any number of sessions may run over one Snapshot at the
// same time — session queries hold the snapshot's read lock while touching
// shared scopes and metric slabs, and everything a session mutates (views
// built from the shared tree, expansion/zoom/sort state, memoized orders,
// derived-metric overlays) is private to it. One Session is NOT safe for
// concurrent use by multiple goroutines; each frontend serializes the
// calls of a given session (the HTTP server locks per token).
//
// Every public query method runs in two phases: a fault phase (lazy column
// fault-in, which may take the snapshot's write lock) strictly before a
// query phase under the read lock — never the reverse, so the lock order
// is acyclic.
type Session struct {
	snap *Snapshot
	// reg is the session's column registry: the snapshot's sealed columns
	// (shared descriptors) plus any session-registered derived columns.
	reg *metric.Registry
	// source, when non-nil, backs the source pane.
	source *prog.Program
	// doc and profiles, when attached, back the per-rank plot graphs.
	doc      *structfile.Doc
	profiles []*profile.Profile

	view ViewKind
	// callers and flat are this session's materializations of the derived
	// views; they read the shared tree but live in private arenas/stores.
	callers  *core.CallersView
	flat     *core.FlatView
	expanded map[*core.Node]bool
	sort     core.SortSpec
	// zoom restricts the Calling Context View to one subtree.
	zoom []*core.Node
	// flatten is the Flat View's current flattening level.
	flatten   int
	selected  *core.Node
	highlight map[*core.Node]bool
	threshold float64
	// topN and maxDepth bound the visible rows (0 = unlimited).
	topN     int
	maxDepth int
	// columns selects the metric pane's columns (nil = all).
	columns []render.Column
	// rows caches the last computed visible rows (for addressing).
	rows []render.Row

	// cache memoizes sorted sibling orders and hot paths across renders;
	// see cache.go for the invalidation discipline.
	cache *queryCache
	// overlay holds materialized session-derived columns; see overlay.go.
	overlay map[*metric.Store]*overlayCols
	// requested tracks which columns this session has offered to the
	// snapshot's faulter; faultErr records the first failure (surfaced by
	// the next Render, then cleared).
	requested map[int]bool
	faultErr  error
	// snapGen is the last snapshot generation this session reconciled its
	// caches against.
	snapGen uint64

	// catalog resolves database names for the diff command (nil = none).
	catalog Catalog
	// home is the snapshot the session presented before Compare rebased it
	// onto a diff (nil when not in a diff).
	home *Snapshot

	// jobs bounds ExpandAll's parallelism (<=1 serial).
	jobs int
	// released guards the one-shot reference release in Close (Close may
	// be called more than once, e.g. abort then defer).
	released atomic.Bool
	// ctx is cancelled by Close; in-flight callers-view expansion observes
	// it between roots.
	ctx    context.Context
	cancel context.CancelFunc
}

// NewSession opens a session over a snapshot.
func NewSession(snap *Snapshot) *Session {
	ctx, cancel := context.WithCancel(context.Background())
	snap.Retain()
	return &Session{
		snap:      snap,
		reg:       snap.tree.Reg.Clone(),
		expanded:  map[*core.Node]bool{},
		highlight: map[*core.Node]bool{},
		threshold: core.DefaultHotPathThreshold,
		cache:     newQueryCache(),
		requested: map[int]bool{},
		snapGen:   snap.gen.Load(),
		jobs:      1,
		ctx:       ctx,
		cancel:    cancel,
	}
}

// Close cancels the session: in-flight bulk expansion stops at the next
// root, and the shared snapshot is untouched (everything the session built
// is private to it). Close is safe to call from another goroutine — it is
// how a frontend aborts a stuck query — and releases the session's
// snapshot references exactly once, so a mapped database is unmapped only
// after its last session is gone.
func (s *Session) Close() {
	s.cancel()
	if s.released.CompareAndSwap(false, true) {
		s.snap.Release()
		if s.home != nil {
			s.home.Release()
		}
	}
}

// Cancel stops the session's in-flight work — bulk expansion observes the
// context between roots — without releasing its snapshot references. Use it
// when a concurrent goroutine may still be inside Do and the mapping must
// stay alive until it drains; call Close once it has.
func (s *Session) Cancel() { s.cancel() }

// Context returns the session's lifetime context (done after Close).
func (s *Session) Context() context.Context { return s.ctx }

// Snapshot returns the shared snapshot the session presents.
func (s *Session) Snapshot() *Snapshot { return s.snap }

// Tree returns the underlying shared tree. Callers must treat it as
// read-only.
func (s *Session) Tree() *core.Tree { return s.snap.tree }

// Registry returns the session's column registry: the snapshot's sealed
// columns plus this session's derived columns. Other sessions never see
// the latter.
func (s *Session) Registry() *metric.Registry { return s.reg }

// SetSource attaches the program source backing the source pane.
func (s *Session) SetSource(p *prog.Program) { s.source = p }

// SetJobs bounds the parallelism of bulk callers-view expansion
// (ExpandAll); <=1 expands serially.
func (s *Session) SetJobs(jobs int) { s.jobs = jobs }

// View returns the active view kind.
func (s *Session) View() ViewKind { return s.view }

// SwitchView changes the active view, preserving sort and threshold but
// clearing expansion, zoom and highlights (each view has its own scopes).
func (s *Session) SwitchView(v ViewKind) {
	if v == s.view {
		return
	}
	s.view = v
	s.expanded = map[*core.Node]bool{}
	s.highlight = map[*core.Node]bool{}
	s.zoom = nil
	s.selected = nil
	s.rows = nil
	// Switching may build a view lazily (new scopes, new sibling lists).
	s.cache.bump()
}

// SetSort selects the sort column/flavor.
func (s *Session) SetSort(spec core.SortSpec) { s.sort = spec }

// Sort returns the current sort spec.
func (s *Session) Sort() core.SortSpec { return s.sort }

// SetThreshold adjusts the hot-path threshold (the paper exposes it as a
// preference; values outside (0,1] restore the default).
func (s *Session) SetThreshold(t float64) {
	if t <= 0 || t > 1 {
		t = core.DefaultHotPathThreshold
	}
	s.threshold = t
}

// SetLimits bounds the visible rows: at most topN children per scope and
// maxDepth levels (0 = unlimited).
func (s *Session) SetLimits(topN, maxDepth int) {
	s.topN, s.maxDepth = topN, maxDepth
}

// Limits returns the current topN and maxDepth bounds.
func (s *Session) Limits() (topN, maxDepth int) { return s.topN, s.maxDepth }

// SetColumns selects which metric columns the metric pane shows (nil
// restores all columns).
func (s *Session) SetColumns(cols []render.Column) { s.columns = cols }

// Select makes the node the current selection (for source pane and
// hot-path starting point).
func (s *Session) Select(n *core.Node) { s.selected = n }

// Selected returns the current selection (nil if none).
func (s *Session) Selected() *core.Node { return s.selected }

// Collapse closes one scope.
func (s *Session) Collapse(n *core.Node) { delete(s.expanded, n) }

// ZoomIn restricts the Calling Context View to the subtree at n.
func (s *Session) ZoomIn(n *core.Node) error {
	if s.view != ViewCC {
		return fmt.Errorf("engine: zoom applies to the calling context view")
	}
	s.zoom = append(s.zoom, n)
	return nil
}

// ZoomOut undoes one ZoomIn.
func (s *Session) ZoomOut() {
	if len(s.zoom) > 0 {
		s.zoom = s.zoom[:len(s.zoom)-1]
	}
}

// FlattenOnce elides the Flat View's current top level (Section III-C).
func (s *Session) FlattenOnce() error {
	if s.view != ViewFlat {
		return fmt.Errorf("engine: flattening applies to the flat view")
	}
	s.flatten++
	return nil
}

// Unflatten undoes one FlattenOnce.
func (s *Session) Unflatten() {
	if s.flatten > 0 {
		s.flatten--
	}
}

// FlattenLevel reports the current flattening depth.
func (s *Session) FlattenLevel() int { return s.flatten }

// --- fault phase -----------------------------------------------------

// faultColumn offers one sealed column to the snapshot's faulter, once per
// session. A first offer may change metric values (even when another
// session already materialized the column — this session had not observed
// it), so it invalidates the session's memoized orders. Must not be called
// with the snapshot read lock held.
func (s *Session) faultColumn(id int) {
	if id >= s.snap.baseCols || !s.snap.lazy() || s.requested[id] {
		return
	}
	s.requested[id] = true
	if err := s.snap.needColumn(id); err != nil && s.faultErr == nil {
		s.faultErr = err
	}
	s.cache.bump()
}

// faultForView materializes every lazy column before an aggregating view
// (Callers, Flat) is built or expanded: those views copy every resident
// column of the scopes they aggregate, so their contents must be a pure
// function of the database, not of which columns other sessions faulted
// first. Must not be called with the snapshot read lock held.
func (s *Session) faultForView() {
	if s.view == ViewCC || !s.snap.lazy() {
		return
	}
	if err := s.snap.FaultAll(); err != nil && s.faultErr == nil {
		s.faultErr = err
	}
}

// faultSort offers the sort column (the order of every sibling list
// depends on it).
func (s *Session) faultSort() {
	if !s.sort.ByLabel {
		s.faultColumn(s.sort.MetricID)
	}
}

// --- query phase -----------------------------------------------------

// refreshLocked reconciles the session with the snapshot generation:
// if any session faulted a column since this session last looked, shared
// slabs changed under the memoized orders and overlay columns, so both are
// dropped. Runs under the snapshot read lock (the generation is stable
// while it is held).
func (s *Session) refreshLocked() {
	if g := s.snap.gen.Load(); g != s.snapGen {
		s.snapGen = g
		s.cache.bump()
		s.overlay = nil
	}
}

// rootsLocked returns the active view's current top-level scopes plus the
// scope that owns the list (nil for a view's forest) — the identity the
// query cache keys sibling orders by. Builds the derived views on first
// use; they read the shared tree, so this runs under the read lock.
func (s *Session) rootsLocked() (parent *core.Node, ns []*core.Node) {
	switch s.view {
	case ViewCC:
		if len(s.zoom) > 0 {
			z := s.zoom[len(s.zoom)-1]
			return z, z.Children
		}
		return s.snap.tree.Root, s.snap.tree.Root.Children
	case ViewCallers:
		if s.callers == nil {
			s.callers = core.BuildCallersView(s.snap.tree)
		}
		return nil, s.callers.Roots
	case ViewFlat:
		if s.flat == nil {
			s.flat = core.BuildFlatView(s.snap.tree)
		}
		return nil, core.FlattenN(s.flat.Roots, s.flatten)
	}
	return nil, nil
}

// visibleRowsLocked recomputes the rows currently on screen: top-level
// scopes always, descendants only along expanded chains, every sibling
// list ordered by the session sort.
func (s *Session) visibleRowsLocked() []render.Row {
	s.rows = s.rows[:0]
	var add func(parent *core.Node, ns []*core.Node, depth int)
	add = func(parent *core.Node, ns []*core.Node, depth int) {
		sorted := s.sortedSiblings(parent, ns)
		if s.topN > 0 && len(sorted) > s.topN {
			sorted = sorted[:s.topN]
		}
		for _, n := range sorted {
			childrenShown := s.expanded[n] && (s.maxDepth == 0 || depth+1 < s.maxDepth)
			hidden := len(n.Children) > 0 && !childrenShown
			// The Callers View materializes children lazily: an
			// unexpanded root row may not know its callers yet, so it
			// is presented as expandable regardless.
			if s.view == ViewCallers && s.callers != nil && n.Parent == nil && !s.callers.Expanded(n) {
				hidden = true
			}
			s.rows = append(s.rows, render.Row{Node: n, Depth: depth, HasHidden: hidden})
			if childrenShown {
				add(n, n.Children, depth+1)
			}
		}
	}
	parent, ns := s.rootsLocked()
	add(parent, ns, 0)
	return s.rows
}

// VisibleRows recomputes and returns the rows currently on screen.
func (s *Session) VisibleRows() []render.Row {
	s.faultSort()
	s.faultForView()
	s.snap.mu.RLock()
	defer s.snap.mu.RUnlock()
	s.refreshLocked()
	return s.visibleRowsLocked()
}

// RowNode resolves a row number from the last VisibleRows/Render call
// (computing the rows first if none have been rendered yet).
func (s *Session) RowNode(idx int) (*core.Node, error) {
	if len(s.rows) == 0 {
		s.VisibleRows()
	}
	if idx < 0 || idx >= len(s.rows) {
		return nil, fmt.Errorf("engine: row %d out of range (0..%d)", idx, len(s.rows)-1)
	}
	return s.rows[idx].Node, nil
}

// Expand opens one scope (for the Callers View this materializes the
// caller chain on demand — Section VII's lazy construction).
func (s *Session) Expand(n *core.Node) {
	s.faultForView()
	s.snap.mu.RLock()
	defer s.snap.mu.RUnlock()
	s.refreshLocked()
	s.expandLocked(n)
}

func (s *Session) expandLocked(n *core.Node) {
	if s.view == ViewCallers && s.callers != nil {
		for _, r := range s.callers.Roots {
			if r == n {
				s.callers.Expand(r)
				// Materialization may have created caller rows.
				s.cache.bump()
			}
		}
	}
	s.expanded[n] = true
}

// ExpandAll opens every scope under n (and n itself). In the Callers View
// this materializes every caller subtrie — in parallel when SetJobs allows
// — which can fail on a damaged view or be cut short by Close; the scopes
// opened so far stay open.
func (s *Session) ExpandAll(n *core.Node) error {
	s.faultForView()
	s.snap.mu.RLock()
	defer s.snap.mu.RUnlock()
	s.refreshLocked()
	var err error
	if s.view == ViewCallers && s.callers != nil {
		err = s.callers.ExpandAllCtx(s.ctx, s.jobs)
		s.cache.bump()
	}
	core.Walk(n, func(x *core.Node) bool {
		s.expanded[x] = true
		return true
	})
	return err
}

// HotPath runs hot-path analysis (Equation 3) over the given metric from
// the selection (or the whole view when nothing is selected), expands
// every scope along the path so it is visible, highlights it, and selects
// its endpoint — the paper's one-click drill-down.
func (s *Session) HotPath(metricID int) []*core.Node {
	s.faultColumn(metricID)
	s.faultForView()
	s.snap.mu.RLock()
	defer s.snap.mu.RUnlock()
	s.refreshLocked()
	start := s.selected
	if start == nil {
		if s.view == ViewCC && len(s.zoom) > 0 {
			start = s.zoom[len(s.zoom)-1]
		} else if s.view == ViewCC {
			start = s.snap.tree.Root
		} else {
			// Derived views have a forest; start from the hottest root.
			_, roots := s.rootsLocked()
			if len(roots) == 0 {
				return nil
			}
			best := roots[0]
			for _, r := range roots[1:] {
				if s.cellValue(r, metricID, true) > s.cellValue(best, metricID, true) {
					best = r
				}
			}
			start = best
		}
	}
	if s.view == ViewCallers && s.callers != nil {
		// The path may need lazily built caller chains.
		for _, r := range s.callers.Roots {
			if r == start {
				s.callers.Expand(r)
				s.cache.bump()
			}
		}
	}
	path := s.hotPathCached(start, metricID)
	s.highlight = map[*core.Node]bool{}
	for _, n := range path {
		s.highlight[n] = true
		s.expanded[n] = true
	}
	if len(path) > 0 {
		s.selected = path[len(path)-1]
	}
	return path
}

// Render writes the visible rows with row numbers. Columns about to be
// displayed are faulted in first (lazy databases); a fault failure aborts
// the render with the section's typed error.
func (s *Session) Render(w io.Writer, opt render.Options) error {
	if opt.Columns == nil {
		opt.Columns = s.columns
	}
	if s.snap.lazy() {
		if opt.Columns != nil {
			for _, c := range opt.Columns {
				s.faultColumn(c.MetricID)
			}
		} else {
			for _, d := range s.reg.Columns() {
				s.faultColumn(d.ID)
			}
		}
	}
	s.faultSort()
	s.faultForView()
	s.snap.mu.RLock()
	defer s.snap.mu.RUnlock()
	s.refreshLocked()
	rows := s.visibleRowsLocked()
	if err := s.faultErr; err != nil {
		s.faultErr = nil
		return err
	}
	opt.Highlight = s.highlight
	if opt.Totals == nil {
		opt.Totals = s.total
	}
	if opt.Value == nil {
		opt.Value = s.cellValue
	}
	return render.RenderRows(w, rows, s.reg, opt)
}

// AddDerivedMetric registers a session-private derived column. Unlike the
// database's own derived metrics it is never written to any store: values
// materialize lazily into the session's overlay (see overlay.go), so
// concurrent sessions over the same snapshot cannot observe each other's
// formulas. Columns the formula reads are faulted in first when the
// snapshot fronts a lazy database.
func (s *Session) AddDerivedMetric(name, formula string) error {
	d, err := s.reg.AddDerived(name, formula)
	if err != nil {
		return err
	}
	if s.snap.lazy() {
		if p, perr := d.Program(); perr == nil {
			for _, rc := range p.ColumnRefs() {
				s.faultColumn(rc)
			}
		}
	}
	// Values of the new column do not affect existing orders, but the
	// single-session viewer historically invalidated here; keep the
	// stronger discipline (the column may become the sort key next).
	s.cache.bump()
	if err := s.faultErr; err != nil {
		s.faultErr = nil
		return err
	}
	return nil
}

// SummaryStats folds the inclusive values of one column over the current
// view's visible rows (Section VII's mean/min/max/stddev summarization,
// applied to the scopes on screen).
func (s *Session) SummaryStats(metricID int, inclusive bool) metric.Stats {
	s.faultColumn(metricID)
	s.faultSort()
	s.faultForView()
	s.snap.mu.RLock()
	defer s.snap.mu.RUnlock()
	s.refreshLocked()
	var st metric.Stats
	for _, row := range s.visibleRowsLocked() {
		st.Observe(s.cellValue(row.Node, metricID, inclusive))
	}
	return st
}

// AttachProfiles supplies the raw per-rank profiles and the structure
// document, enabling per-rank plot graphs (the three graphs of Figure 7).
func (s *Session) AttachProfiles(doc *structfile.Doc, profs []*profile.Profile) {
	s.doc = doc
	s.profiles = profs
}

// Plot renders the per-rank distribution of the named metric at the
// selected Calling Context View scope: scatter, sorted series and
// histogram (Section VI-C). Requires AttachProfiles and a selection in the
// CC view (the per-rank series is defined by a calling context).
func (s *Session) Plot(w io.Writer, metricName string, bins int) error {
	if s.doc == nil || len(s.profiles) == 0 {
		return fmt.Errorf("engine: no profiles attached (plot needs the raw measurements)")
	}
	n := s.selected
	if n == nil {
		return fmt.Errorf("engine: nothing selected")
	}
	if s.view != ViewCC {
		return fmt.Errorf("engine: plots are defined over calling contexts (switch to the cc view)")
	}
	s.snap.mu.RLock()
	defer s.snap.mu.RUnlock()
	var path []string
	for _, a := range n.Path() {
		path = append(path, a.Label())
	}
	rep, err := imbalance.Analyze(s.doc, s.profiles, path, metricName, bins)
	if err != nil {
		return err
	}
	return rep.Render(w)
}

// ShowSource writes the source pane for the selection: the pseudo-source
// window around the scope's line. Call sites show the caller-side line
// (clicking the call-site icon in hpcviewer), everything else its own
// line.
func (s *Session) ShowSource(w io.Writer, context int) error {
	if s.source == nil {
		return fmt.Errorf("engine: no program source attached")
	}
	n := s.selected
	if n == nil {
		return fmt.Errorf("engine: nothing selected")
	}
	if n.NoSource {
		return fmt.Errorf("engine: %s is binary-only (no source)", n.Label())
	}
	file, line := n.File, n.Line
	if n.Kind == core.KindFrame && n.CallLine > 0 {
		file, line = n.CallFile, n.CallLine
	}
	if file == 0 || line <= 0 {
		return fmt.Errorf("engine: %s has no source location", n.Label())
	}
	fmt.Fprintf(w, "%s:%d (%s)\n", file, line, n.Label())
	return s.source.WriteSource(w, file.String(), line, context)
}
