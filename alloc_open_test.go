package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/expdb"
)

// TestMappedExperimentAllocs locks the one-pass v3 tree decode: decoding a
// mapped database's metadata allocates per slab of scopes, never per
// scope — at most one object per 256 scopes plus a constant for the
// string table, registry and section bookkeeping.
func TestMappedExperimentAllocs(t *testing.T) {
	const perScopes, fixed = 256, 100
	for _, n := range []int{10_000, 100_000} {
		var buf bytes.Buffer
		if err := expdb.New(syntheticCCT(n, 13)).WriteBinaryV3(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "synth.v3.db")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		got := experimentAllocs(t, path)
		t.Logf("%d scopes: %d allocs", n, got)
		if limit := uint64(n/perScopes + fixed); got > limit {
			t.Errorf("%d scopes: Experiment() allocates %d objects, want <= %d", n, got, limit)
		}
	}
}

// experimentAllocs reports the fewest heap objects one MappedDB.Experiment
// call allocated over three fresh opens of path.
func experimentAllocs(t *testing.T, path string) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		db, err := expdb.OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = db.Experiment()
		runtime.ReadMemStats(&after)
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}
