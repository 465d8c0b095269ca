// Package engine is the concurrency-safe presentation engine behind the
// paper's interactive analyses. It separates what the process-local viewer
// entangled:
//
//   - Snapshot: an opened experiment database — CCT, metric store, registry
//     — sealed immutable after load. The only post-seal mutation, first-
//     touch checksum verification of mapped column sections (a damaged
//     column is detached to zero), runs behind the snapshot's write lock
//     while every query holds the read lock, and each fault bumps a
//     generation counter so session caches can never serve stale orders.
//
//   - Session: one user's presentation state over a shared snapshot — view
//     selection, expansion, zoom, flattening, sort, selection, highlights,
//     memoized query results, and an overlay registry for session-private
//     derived metrics. Any number of sessions may run over one snapshot
//     concurrently; each renders byte-identically to a session that had the
//     database to itself.
//
//   - Exec: the request/response command surface (the REPL grammar) thin
//     frontends speak — the interactive CLI and the HTTP server are both
//     line-in, text-out clients of the same engine.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/ingest"
)

// Snapshot is an immutable view of a loaded experiment database, shared by
// any number of concurrent sessions.
//
// Immutability discipline: the tree's structure, its metric store and its
// registry are sealed at construction (presented metrics are computed and
// derived kernels applied before the snapshot is handed out). The one
// exception is first-touch column verification of a mapped database, which
// may detach a damaged shared column; it runs under mu's
// write lock, while every session query runs under the read lock, and each
// first-time fault advances gen so sessions invalidate their memoized
// orders, hot paths and overlay columns.
type Snapshot struct {
	tree *core.Tree
	exp  *expdb.Experiment
	// mdb is the database image the snapshot was opened from; nil for an
	// in-memory experiment (NewSnapshot). Its columns fault in lazily, and
	// it is closed when the last owner releases the snapshot.
	mdb *expdb.MappedDB

	// refs counts owners: the creator (released by Close) plus one per
	// live Session. The database closes when the count hits zero — for a
	// mapped file that unmaps it, so it must not happen while any session
	// could still dereference a borrowed slab.
	refs atomic.Int64

	// baseCols is the registry length at seal time: the boundary between
	// shared database columns (below) and session-overlay derived columns
	// (at or above).
	baseCols int

	// hookMu guards lastRelease: hooks appended by lifecycle owners (the
	// catalog) that run after the database closes at final release.
	hookMu      sync.Mutex
	lastRelease []func()

	// mu orders queries (read lock) against fault-in (write lock).
	mu sync.RWMutex
	// gen counts fault-in events; sessions compare it to their last
	// observed value and drop caches on change. Written under mu; read
	// atomically so sessions can check it cheaply under the read lock.
	gen atomic.Uint64

	// faulted memoizes the per-column outcome of the database's column
	// fault-in, so each column faults exactly once per snapshot. Guarded
	// by mu.
	faulted map[int]error
	// allFaulted short-circuits FaultAll once every column has been
	// offered. Guarded by mu.
	allFaulted bool
}

// NewSnapshot seals an in-memory experiment. The experiment must be fully
// materialized (expdb.Read and expdb.FromMerge results are); a bare tree
// is sealed as NewSnapshot(expdb.New(t)).
func NewSnapshot(exp *expdb.Experiment) *Snapshot {
	sn := &Snapshot{tree: exp.Tree, exp: exp}
	sn.seal()
	return sn
}

// NewMappedSnapshot seals a v3 database — a mapped file or an imported
// legacy database's heap image (expdb.Open). Metadata is decoded here (a
// snapshot cannot present without the tree); column slabs stay untouched
// in the image until sessions fault them, when the database verifies each
// section's checksum exactly once. The snapshot owns the database: it is
// closed (unmapped) when the last owner (creator + live sessions)
// releases the snapshot.
func NewMappedSnapshot(mdb *expdb.MappedDB) (*Snapshot, error) {
	exp, err := mdb.Experiment()
	if err != nil {
		return nil, err
	}
	sn := &Snapshot{tree: exp.Tree, exp: exp, mdb: mdb}
	sn.seal()
	return sn, nil
}

// Open opens an experiment database file of any format (expdb.Open: v3 is
// mapped, v1/v2/XML are imported into a v3 heap image) and seals it.
func Open(path string) (*Snapshot, error) {
	mdb, err := expdb.Open(path)
	if err != nil {
		return nil, err
	}
	sn, err := NewMappedSnapshot(mdb)
	if err != nil {
		mdb.Close()
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return sn, nil
}

// seal freezes the snapshot: presented metrics are computed (a no-op for
// database-loaded trees, whose finalize already ran) and the base column
// boundary recorded.
func (sn *Snapshot) seal() {
	sn.tree.EnsureComputed()
	sn.baseCols = sn.tree.Reg.Len()
	sn.faulted = map[int]error{}
	sn.refs.Store(1)
}

// Retain adds an owner. Sessions retain their snapshot at construction and
// release it on Close, so a mapped file is never unmapped under a live
// session.
func (sn *Snapshot) Retain() { sn.refs.Add(1) }

// Release drops one owner; the last release closes the database
// (unmapping a mapped file), then runs any OnLastRelease hooks.
func (sn *Snapshot) Release() error {
	if sn.refs.Add(-1) != 0 {
		return nil
	}
	var err error
	if sn.mdb != nil {
		err = sn.mdb.Close()
	}
	sn.hookMu.Lock()
	hooks := sn.lastRelease
	sn.lastRelease = nil
	sn.hookMu.Unlock()
	for _, f := range hooks {
		f()
	}
	return err
}

// RefCount reports the current number of owners (creator + live sessions +
// any lifecycle manager references). It is a point-in-time observation for
// stats and tests, not a synchronization primitive.
func (sn *Snapshot) RefCount() int64 { return sn.refs.Load() }

// OnLastRelease registers f to run after the final Release — for a mapped
// database, after the file is actually unmapped. The catalog uses it to
// account resident bytes at true unmap time (an evicted snapshot stays
// mapped while sessions still retain it). Safe to call concurrently with
// Retain/Release; if the count already hit zero the hook never runs.
func (sn *Snapshot) OnLastRelease(f func()) {
	sn.hookMu.Lock()
	sn.lastRelease = append(sn.lastRelease, f)
	sn.hookMu.Unlock()
}

// Close releases the creator's reference. Call it once, when the frontend
// is done handing the snapshot to new sessions; live sessions keep the
// snapshot (and its mapping) alive until they close.
func (sn *Snapshot) Close() error { return sn.Release() }

// lazy reports whether the snapshot has lazily faulted columns: it was
// opened from a database image.
func (sn *Snapshot) lazy() bool { return sn.mdb != nil }

// Tree returns the shared tree. Callers must treat it as read-only.
func (sn *Snapshot) Tree() *core.Tree { return sn.tree }

// Experiment returns the database wrapper.
func (sn *Snapshot) Experiment() *expdb.Experiment { return sn.exp }

// BaseColumns reports the number of sealed registry columns; session
// overlay columns are assigned IDs from this boundary up.
func (sn *Snapshot) BaseColumns() int { return sn.baseCols }

// Generation returns the fault-in generation counter.
func (sn *Snapshot) Generation() uint64 { return sn.gen.Load() }

// Notes returns a copy of the database's degradation notes (fault-in may
// append to them; the copy is taken under the read lock).
func (sn *Snapshot) Notes() []string {
	sn.mu.RLock()
	defer sn.mu.RUnlock()
	return append([]string(nil), sn.exp.Notes...)
}

// MappedBytes returns the database image (the mapped file, or an imported
// database's heap image) for sizing and residency probing; nil for
// snapshots not opened from a file. Read-only.
func (sn *Snapshot) MappedBytes() []byte {
	if sn.mdb == nil {
		return nil
	}
	return sn.mdb.MappedBytes()
}

// Mapped reports whether the snapshot is backed by a true memory mapping.
func (sn *Snapshot) Mapped() bool { return sn.mdb != nil && sn.mdb.Mapped() }

// SectionSpans returns the database image's sections as named byte spans
// (nil for snapshots not opened from a file), for per-kind residency
// probes.
func (sn *Snapshot) SectionSpans() []expdb.SectionSpan {
	if sn.mdb == nil {
		return nil
	}
	return sn.mdb.SectionSpans()
}

// Provenance faults in and returns the database's quarantine report (nil
// when absent).
func (sn *Snapshot) Provenance() (*ingest.Report, error) {
	if sn.mdb == nil {
		return sn.exp.Provenance, nil
	}
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.mdb.Provenance()
}

// Trace returns the snapshot's trace view (time-dimension data), building
// and checksum-verifying it on first call. Only snapshots opened from a
// v3 file with trace sections carry traces; others return an empty view
// or (nil, nil). The view is immutable and safe
// for concurrent renders; the snapshot's refcount keeps its mapping alive,
// so callers must hold a reference (sessions do) for as long as they use
// the view. Damage degrades into Notes, never an error here.
func (sn *Snapshot) Trace() (*expdb.TraceView, error) {
	if sn.mdb == nil {
		return nil, nil
	}
	// The database appends degradation notes to the shared Experiment under
	// its own lock; take the snapshot's write lock so Notes() readers (who
	// hold the read lock) never race the append.
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.mdb.Trace()
}

// NodeAt resolves a trace call-path id (structural tree row) to its node;
// nil for snapshots not opened from a file or out-of-range rows.
func (sn *Snapshot) NodeAt(row int) *core.Node {
	if sn.mdb == nil {
		return nil
	}
	return sn.mdb.NodeAt(row)
}

// needColumn faults a column in exactly once per column across every
// session of the snapshot, under the write lock (queries are excluded while
// shared slabs may be rewritten). The recorded outcome is returned to every
// later requester. Each first-time fault advances the generation.
func (sn *Snapshot) needColumn(id int) error {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.needColumnLocked(id)
}

func (sn *Snapshot) needColumnLocked(id int) error {
	if sn.mdb == nil {
		return nil
	}
	if err, ok := sn.faulted[id]; ok {
		return err
	}
	sn.gen.Add(1)
	err := sn.mdb.NeedColumn(id)
	sn.faulted[id] = err
	return err
}

// FaultAll faults in every sealed column. Sessions call it
// before building or expanding an aggregating view (Callers, Flat): those
// views copy every resident column of the scopes they aggregate, so their
// contents must not depend on which columns other sessions happened to
// fault first — materializing everything makes the aggregate a pure
// function of the database. The first error is returned, but every column
// is still offered.
func (sn *Snapshot) FaultAll() error {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if sn.mdb == nil || sn.allFaulted {
		return nil
	}
	var first error
	for id := 0; id < sn.baseCols; id++ {
		if err := sn.needColumnLocked(id); err != nil && first == nil {
			first = err
		}
	}
	sn.allFaulted = true
	return first
}
