package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/expdb"
)

// Open-path benchmarks for the v3 zero-copy layout: opening a database
// from disk and answering the first query from cold. The mapped v3 open
// parses the fixed-width section index and nothing else — O(index) — and
// faults column slabs in on first touch. Baseline numbers live in
// BENCH_open.json.

// openBenchFile serializes the 100k-scope synthetic CCT as v3 into a temp
// dir and returns its path. The tree is fixed-seed, so the file — and the
// open-path allocation counts — are deterministic.
func openBenchFile(b *testing.B) string {
	b.Helper()
	var buf bytes.Buffer
	if err := expdb.New(syntheticCCT(100_000, 13)).WriteBinaryV3(&buf); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "synth.v3.db")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkMappedOpen measures the O(index) open: map the file, parse the
// trailer and section index, and return — no tree decode, no column reads.
func BenchmarkMappedOpen(b *testing.B) {
	v3path := openBenchFile(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db, err := expdb.OpenMapped(v3path)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// coldQuery opens a session over the snapshot, runs the paper's hot path
// analysis — the canonical "first question" a user asks — and closes.
func coldQuery(b *testing.B, snap *engine.Snapshot) {
	s := engine.NewSession(snap)
	if resp := s.Do(engine.Request{Line: "hot CYCLES"}); resp.Err != "" || resp.Output == "" {
		s.Close()
		b.Fatalf("hot CYCLES: %q err=%s", resp.Output, resp.Err)
	}
	s.Close()
}

// BenchmarkColdFirstQueryMapped measures time-to-first-answer on the
// mapped path: open, decode metadata, fault in the queried column slabs
// (checksummed on first touch), run the hot path, release the mapping.
func BenchmarkColdFirstQueryMapped(b *testing.B) {
	v3path := openBenchFile(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		snap, err := engine.Open(v3path)
		if err != nil {
			b.Fatal(err)
		}
		coldQuery(b, snap)
		if err := snap.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
