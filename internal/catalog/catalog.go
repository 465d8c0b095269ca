// Package catalog is the lifecycle layer between storage and serving: a
// multi-tenant registry of experiment databases that one hpcserver process
// serves to thousands of sessions. Where the presentation engine made many
// sessions over one immutable snapshot safe (PR 5) and the v3 layout made
// opening a database O(index) (PR 7), the catalog supplies what neither
// has — time: databases arrive (ingest, spool), get opened on demand under
// a memory budget (LRU eviction), are superseded by newer runs (atomic
// generation swap) and disappear — all while queries are in flight.
//
// Invariants, in decreasing order of importance:
//
//  1. Never serve a torn database. Every file the catalog publishes was
//     written via temp file + fsync + rename (expdb.WriteFileAtomic) and
//     validated — full checksum sweep — before it became resolvable. A
//     published file is immutable: replacing a generation means publishing
//     a new file under a new timestamp, never rewriting bytes a live
//     mapping could see.
//
//  2. Never unmap under a reader. The catalog holds one reference on each
//     open snapshot (engine.Snapshot.Retain/Release); Acquire hands the
//     caller its own reference, taken under the catalog lock, so eviction
//     can never race a lookup. Eviction only drops the catalog's
//     reference — the munmap happens at whatever point the last session
//     releases, which the resident-bytes stat observes via OnLastRelease.
//
//  3. Generations swap atomically. A series (service, run) resolves to its
//     latest published generation at Acquire time; sessions keep the
//     snapshot they acquired for their whole life (the engine refcounts),
//     so a republish flips what *new* sessions see without touching
//     in-flight ones.
package catalog

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
)

// Key identifies one published database generation: a series (service,
// run) plus a timestamp that orders generations within the series. Run may
// be empty for single-run services ("after" as a bare diff target).
type Key struct {
	Service string
	Run     string
	Ts      int64
}

// Series names the (service, run) pair the key belongs to.
func (k Key) Series() string {
	if k.Run == "" {
		return k.Service
	}
	return k.Service + "/" + k.Run
}

// String renders the fully-qualified generation name, "service/run@ts".
func (k Key) String() string { return fmt.Sprintf("%s@%d", k.Series(), k.Ts) }

// Validate rejects keys whose parts could not round-trip through names,
// file names or URLs.
func (k Key) Validate() error {
	if err := validPart(k.Service); err != nil {
		return fmt.Errorf("catalog: bad service %q: %w", k.Service, err)
	}
	if k.Run != "" {
		if err := validPart(k.Run); err != nil {
			return fmt.Errorf("catalog: bad run %q: %w", k.Run, err)
		}
	}
	if k.Ts < 0 {
		return fmt.Errorf("catalog: negative timestamp %d", k.Ts)
	}
	return nil
}

func validPart(s string) error {
	if s == "" {
		return errors.New("empty")
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
		default:
			return fmt.Errorf("character %q not allowed (want [A-Za-z0-9._-])", r)
		}
	}
	if strings.Contains(s, "__") {
		return errors.New("double underscore is the spool filename separator")
	}
	return nil
}

// ParseName splits a catalog name — "service", "service/run" or either
// with a trailing "@ts" — into its series and optional timestamp.
func ParseName(name string) (series string, ts int64, hasTs bool, err error) {
	series = name
	if at := strings.LastIndexByte(name, '@'); at >= 0 {
		series = name[:at]
		ts, err = strconv.ParseInt(name[at+1:], 10, 64)
		if err != nil {
			return "", 0, false, fmt.Errorf("catalog: bad timestamp in %q: %w", name, err)
		}
		hasTs = true
	}
	if series == "" {
		return "", 0, false, fmt.Errorf("catalog: empty series in %q", name)
	}
	return series, ts, hasTs, nil
}

// Sentinel and typed errors. Acquire and Ingest wrap causes so frontends
// can map them onto transport status codes without string matching.
var (
	// ErrNotFound reports an unknown series or generation.
	ErrNotFound = errors.New("catalog: not found")
	// ErrDuplicate reports a publish for a (series, ts) that already exists.
	ErrDuplicate = errors.New("catalog: generation already published")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("catalog: closed")
)

// OpenError reports that a published generation failed to open or
// validate — the serving-time face of on-disk damage.
type OpenError struct {
	Key Key
	Err error
}

func (e *OpenError) Error() string {
	return fmt.Sprintf("catalog: opening %s: %v", e.Key, e.Err)
}
func (e *OpenError) Unwrap() error { return e.Err }

// IngestError reports a rejected ingest (torn, corrupt or unreadable
// payload). The database was NOT published.
type IngestError struct {
	Key Key
	Err error
}

func (e *IngestError) Error() string {
	return fmt.Sprintf("catalog: ingest %s rejected: %v", e.Key, e.Err)
}
func (e *IngestError) Unwrap() error { return e.Err }

// Config shapes a catalog.
type Config struct {
	// Dir is where ingested databases are stored. Required for Ingest and
	// the spool watcher; a publish-only catalog may leave it empty.
	Dir string
	// MemBudget bounds the total database image size (the file size for a
	// mapped v3 database, the heap image for an imported legacy one) of
	// snapshots the catalog keeps open; 0 = unbounded.
	// The budget is enforced by LRU eviction after each open — a single
	// database larger than the budget still serves, and pinned snapshots
	// never evict.
	MemBudget int64
	// MaxGenerations bounds how many generations per series stay
	// resolvable; older ones are dropped at publish. Default 3.
	MaxGenerations int
	// Logf, when set, receives operational messages (spool quarantines,
	// eviction decisions). Never required for correctness.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time counters snapshot, JSON-ready for /v1/stats.
type Stats struct {
	Series        int   `json:"series"`
	Generations   int   `json:"generations"`
	Open          int   `json:"open_snapshots"`
	OpenBytes     int64 `json:"open_bytes"`
	ResidentBytes int64 `json:"resident_bytes"`
	MemBudget     int64 `json:"mem_budget"`

	Opens        uint64 `json:"opens"`
	Evictions    uint64 `json:"evictions"`
	Published    uint64 `json:"published"`
	Ingested     uint64 `json:"ingested"`
	IngestErrors uint64 `json:"ingest_errors"`
}

// generation is one published database file (or pinned snapshot).
type generation struct {
	key    Key
	seq    uint64 // global publish order, tie-break within equal Ts
	path   string // "" for pinned snapshots
	size   int64  // file size until opened, then the image size
	pinned bool

	// snap is non-nil while the catalog holds a reference (open or
	// pinned). lastUse is the LRU clock tick of the latest Acquire.
	snap    *engine.Snapshot
	lastUse uint64
	// opening is non-nil while one goroutine opens the file; others wait
	// on it instead of duplicating the open.
	opening chan struct{}
	// dead marks a generation dropped from its series while an open was in
	// flight; the open's result is handed to callers but never cached.
	dead bool
}

// series is one (service, run) line of generations, ascending publish order.
type series struct {
	name string
	gens []*generation
}

// Catalog is safe for concurrent use by any number of goroutines.
type Catalog struct {
	cfg Config

	mu     sync.Mutex
	byName map[string]*series
	clock  uint64 // LRU ticks
	seq    uint64 // publish sequence
	closed bool
	// reserving holds keys whose ingest is between its duplicate check and
	// its publish, so two concurrent ingests of one key cannot both write
	// the canonical path (the loser's rename would replace the winner's
	// published — immutable! — file).
	reserving map[Key]bool

	openCount int
	openBytes int64

	opens        uint64
	evictions    uint64
	published    uint64
	ingested     uint64
	ingestErrors uint64

	// residentBytes tracks bytes still actually resident (mapped or heap
	// approximation): incremented at open, decremented by each snapshot's
	// OnLastRelease hook — which may fire long after eviction, when the
	// last session releases. Atomic because the hook runs outside mu.
	residentBytes atomic.Int64

	// measureMu guards measures, the per-generation total-cost memo behind
	// Pick. Separate from mu: measuring acquires generations.
	measureMu sync.Mutex
	measures  map[Key]float64
}

// New creates a catalog.
func New(cfg Config) *Catalog {
	if cfg.MaxGenerations <= 0 {
		cfg.MaxGenerations = 3
	}
	return &Catalog{cfg: cfg, byName: map[string]*series{}, reserving: map[Key]bool{}}
}

func (c *Catalog) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Publish registers an existing database file as the newest generation of
// its series. The file must already be complete and durable (written via
// expdb.WriteFileAtomic); Publish does not validate its contents — Ingest
// does, and Acquire surfaces a typed OpenError for damaged files. Publish
// is the atomic swap: once it returns, new Acquires of the series resolve
// to this generation, while snapshots handed out earlier are untouched.
func (c *Catalog) Publish(key Key, path string) error {
	if err := key.Validate(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("catalog: publish %s: %w", key, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return c.publishLocked(key, path, fi.Size(), nil)
}

// Pin registers an already-open snapshot under a series name, outside the
// eviction and generation lifecycle: pinned snapshots never evict and have
// no backing path. This is how static `-compare name=path` entries and the
// default database join the catalog. The catalog takes its own reference.
func (c *Catalog) Pin(name string, snap *engine.Snapshot) error {
	ser, ts, hasTs, err := ParseName(name)
	if err != nil {
		return err
	}
	if hasTs {
		return fmt.Errorf("catalog: pin %q: pinned names cannot carry @ts", name)
	}
	key := Key{Service: ser, Ts: ts}
	if i := strings.IndexByte(ser, '/'); i >= 0 {
		key = Key{Service: ser[:i], Run: ser[i+1:], Ts: ts}
	}
	if err := key.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return c.publishLocked(key, "", imageSize(snap), snap)
}

// publishLocked inserts a generation; pinned when snap != nil.
func (c *Catalog) publishLocked(key Key, path string, size int64, snap *engine.Snapshot) error {
	s := c.byName[key.Series()]
	if s == nil {
		s = &series{name: key.Series()}
		c.byName[s.name] = s
	}
	for _, g := range s.gens {
		if g.key.Ts == key.Ts {
			return fmt.Errorf("%w: %s", ErrDuplicate, key)
		}
	}
	c.seq++
	g := &generation{key: key, seq: c.seq, path: path, size: size}
	if snap != nil {
		snap.Retain()
		g.snap = snap
		g.pinned = true
		c.openCount++
		c.openBytes += size
	}
	// Insert in ascending (Ts, seq) order, not arrival order: "latest" is a
	// timestamp promise, so a generation arriving late (out-of-order spool
	// delivery, LoadDir's lexicographic scan of mixed-width timestamps)
	// must not displace a newer one from resolveLocked's gens[len-1].
	i := len(s.gens)
	for i > 0 && s.gens[i-1].key.Ts > key.Ts {
		i--
	}
	s.gens = append(s.gens, nil)
	copy(s.gens[i+1:], s.gens[i:])
	s.gens[i] = g
	c.published++
	// Trim history: only the newest MaxGenerations unpinned generations
	// stay resolvable. Pinned entries are not history — they are skipped
	// (never trimmed) and don't count against the budget, so a series whose
	// oldest entry is pinned still sheds its unpinned tail. The trimmed
	// generations' snapshots (if open) lose the catalog reference; sessions
	// still holding them are unaffected.
	unpinned := 0
	for _, g := range s.gens {
		if !g.pinned {
			unpinned++
		}
	}
	for i := 0; unpinned > c.cfg.MaxGenerations && i < len(s.gens); {
		if s.gens[i].pinned {
			i++
			continue
		}
		old := s.gens[i]
		s.gens = append(s.gens[:i], s.gens[i+1:]...)
		c.dropLocked(old)
		unpinned--
	}
	return nil
}

// dropLocked releases the catalog's reference on a generation leaving the
// resolvable set (trim or eviction) and marks it dead for any in-flight
// open.
func (c *Catalog) dropLocked(g *generation) {
	g.dead = true
	if g.snap != nil {
		c.openCount--
		c.openBytes -= g.size
		snap := g.snap
		g.snap = nil
		// Release may unmap right here (no sessions) — the OnLastRelease
		// hook only touches atomics, so holding mu is fine.
		_ = snap.Release()
	}
}

// resolveLocked finds the generation a name refers to: the series' newest,
// or the one matching an explicit @ts.
func (c *Catalog) resolveLocked(seriesName string, ts int64, hasTs bool) *generation {
	s := c.byName[seriesName]
	if s == nil || len(s.gens) == 0 {
		return nil
	}
	if !hasTs {
		return s.gens[len(s.gens)-1]
	}
	for i := len(s.gens) - 1; i >= 0; i-- {
		if s.gens[i].key.Ts == ts {
			return s.gens[i]
		}
	}
	return nil
}

// Acquire resolves a name ("service/run", optionally "@ts") to an open
// snapshot, opening the backing file if needed (possibly evicting others
// to stay under the memory budget) and returning it with one reference
// retained for the caller, who must Release it. The retain happens under
// the catalog lock: eviction can never unmap a snapshot between resolution
// and the caller's retain.
func (c *Catalog) Acquire(name string) (*engine.Snapshot, Key, error) {
	seriesName, ts, hasTs, err := ParseName(name)
	if err != nil {
		return nil, Key{}, err
	}
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, Key{}, ErrClosed
		}
		g := c.resolveLocked(seriesName, ts, hasTs)
		if g == nil {
			c.mu.Unlock()
			return nil, Key{}, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		if g.snap != nil {
			c.clock++
			g.lastUse = c.clock
			snap := g.snap
			snap.Retain()
			key := g.key
			c.mu.Unlock()
			return snap, key, nil
		}
		if ch := g.opening; ch != nil {
			// Someone else is opening this generation; wait and re-resolve
			// (the open may fail, or the series may republish meanwhile).
			c.mu.Unlock()
			<-ch
			c.mu.Lock()
			continue
		}
		g.opening = make(chan struct{})
		c.mu.Unlock()
		snap, err := c.open(g)
		c.mu.Lock()
		close(g.opening)
		g.opening = nil
		if err != nil {
			c.mu.Unlock()
			return nil, Key{}, &OpenError{Key: g.key, Err: err}
		}
		if g.dead || c.closed {
			// The generation left the resolvable set while opening. Serve
			// the caller (the bytes were valid) but cache nothing: the
			// caller's release closes the mapping.
			key := g.key
			c.mu.Unlock()
			return snap, key, nil
		}
		c.installLocked(g, snap)
		c.clock++
		g.lastUse = c.clock
		snap.Retain() // caller's reference, on top of the catalog's
		key := g.key
		c.evictLocked(g)
		c.mu.Unlock()
		return snap, key, nil
	}
}

// imageSize is what an open snapshot counts against the memory budget: the
// length of its database image. For a mapped v3 file that is the file
// size; for an imported legacy database, the size of its heap v3 image.
func imageSize(snap *engine.Snapshot) int64 { return int64(len(snap.MappedBytes())) }

// open opens one generation's file outside the lock and wires resident
// accounting to the snapshot's true unmap point.
func (c *Catalog) open(g *generation) (*engine.Snapshot, error) {
	snap, err := engine.Open(g.path)
	if err != nil {
		return nil, err
	}
	size := imageSize(snap)
	c.residentBytes.Add(size)
	snap.OnLastRelease(func() { c.residentBytes.Add(-size) })
	return snap, nil
}

// installLocked records an open snapshot as the catalog's reference.
func (c *Catalog) installLocked(g *generation, snap *engine.Snapshot) {
	g.snap = snap
	g.size = imageSize(snap)
	c.openCount++
	c.openBytes += g.size
	c.opens++
}

// evictLocked drops least-recently-used open snapshots until the open set
// fits the budget. keep (the generation just acquired) and pinned entries
// are exempt; a single oversized database therefore still serves.
func (c *Catalog) evictLocked(keep *generation) {
	if c.cfg.MemBudget <= 0 {
		return
	}
	for c.openBytes > c.cfg.MemBudget {
		var victim *generation
		for _, s := range c.byName {
			for _, g := range s.gens {
				if g.snap == nil || g.pinned || g == keep {
					continue
				}
				if victim == nil || g.lastUse < victim.lastUse {
					victim = g
				}
			}
		}
		if victim == nil {
			return
		}
		c.evictions++
		c.logf("catalog: evicting %s (%d bytes, open %d over budget %d)",
			victim.key, victim.size, c.openBytes, c.cfg.MemBudget)
		c.openCount--
		c.openBytes -= victim.size
		snap := victim.snap
		victim.snap = nil
		_ = snap.Release()
	}
}

// EvictAll drops the catalog's reference on every open, unpinned snapshot —
// the drain path, and a chaos lever. Sessions keep theirs.
func (c *Catalog) EvictAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.byName {
		for _, g := range s.gens {
			if g.snap == nil || g.pinned {
				continue
			}
			c.evictions++
			c.openCount--
			c.openBytes -= g.size
			snap := g.snap
			g.snap = nil
			_ = snap.Release()
		}
	}
}

// Close evicts everything — including pinned snapshots' catalog
// references — and refuses further use.
func (c *Catalog) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, s := range c.byName {
		for _, g := range s.gens {
			if g.snap == nil {
				continue
			}
			c.openCount--
			c.openBytes -= g.size
			snap := g.snap
			g.snap = nil
			_ = snap.Release()
		}
	}
}

// Names lists every resolvable series, sorted — the engine.Catalog
// vocabulary sessions see in the `catalog` command.
func (c *Catalog) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.byName))
	for name, s := range c.byName {
		if len(s.gens) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Generations lists a series' resolvable generation keys, oldest first.
func (c *Catalog) Generations(seriesName string) []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.byName[seriesName]
	if s == nil {
		return nil
	}
	keys := make([]Key, len(s.gens))
	for i, g := range s.gens {
		keys[i] = g.key
	}
	return keys
}

// Stats reports the catalog's counters.
func (c *Catalog) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Series:        len(c.byName),
		Open:          c.openCount,
		OpenBytes:     c.openBytes,
		ResidentBytes: c.residentBytes.Load(),
		MemBudget:     c.cfg.MemBudget,
		Opens:         c.opens,
		Evictions:     c.evictions,
		Published:     c.published,
		Ingested:      c.ingested,
		IngestErrors:  c.ingestErrors,
	}
	for _, s := range c.byName {
		st.Generations += len(s.gens)
	}
	return st
}
