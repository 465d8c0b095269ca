// Equivalence tests for the v3 zero-copy storage layout (DESIGN.md §13).
// Mapping column slabs straight out of the file is performance work only:
// every view a session renders must be byte-identical no matter which
// format engine.Open was handed — a v3 file mapped with float64 slabs read
// in place, or a v1, v2 or XML file imported into a v3 heap image — and
// identical to a snapshot over the eager v2 decode.
package repro

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/render"
	"repro/internal/workloads"
)

// renderViews drives one fresh session per view over the snapshot and
// returns the concatenated renders: fully expanded Calling Context,
// fully expanded Callers, once-flattened Flat, plus a hot path and an
// exclusive sort for coverage of the order-sensitive paths.
func renderViews(t *testing.T, snap *engine.Snapshot) string {
	t.Helper()
	scripts := [][]string{
		{"expandall", "hot CYCLES"},
		{"view callers", "expandall", "sort CYCLES"},
		{"view flat", "flatten", "sort CYCLES:excl"},
	}
	var out strings.Builder
	for _, script := range scripts {
		s := engine.NewSession(snap)
		for _, line := range script {
			if resp := s.Do(engine.Request{Line: line}); resp.Err != "" {
				s.Close()
				t.Fatalf("%q: %s", line, resp.Err)
			}
		}
		fmt.Fprintf(&out, "=== %s ===\n", script[0])
		if err := s.Render(&out, render.Options{}); err != nil {
			s.Close()
			t.Fatal(err)
		}
		s.Close()
	}
	return out.String()
}

// TestV3OpenPathEquivalence runs every workload × {1, 7, 64} ranks through
// engine.Open over each database format and demands renders of all three
// views byte-identical to the eager v2 decode. This is the contract that
// lets every snapshot be a v3 database without a visible change.
func TestV3OpenPathEquivalence(t *testing.T) {
	dir := t.TempDir()
	formats := []struct {
		name  string
		write func(*expdb.Experiment, io.Writer) error
	}{
		{"v1", (*expdb.Experiment).WriteBinaryV1},
		{"v2", (*expdb.Experiment).WriteBinary},
		{"xml", (*expdb.Experiment).WriteXML},
		{"v3", (*expdb.Experiment).WriteBinaryV3},
	}
	for _, name := range workloads.Names() {
		for _, ranks := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/ranks=%d", name, ranks), func(t *testing.T) {
				exp := equivExperiment(t, name, ranks)

				var v2buf bytes.Buffer
				if err := exp.WriteBinary(&v2buf); err != nil {
					t.Fatal(err)
				}
				eagerExp, err := expdb.Read(bytes.NewReader(v2buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				eager := renderViews(t, engine.NewSnapshot(eagerExp))

				for _, f := range formats {
					var buf bytes.Buffer
					if err := f.write(exp, &buf); err != nil {
						t.Fatal(err)
					}
					path := filepath.Join(dir, fmt.Sprintf("%s-%d.%s.db", name, ranks, f.name))
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					snap, err := engine.Open(path)
					if err != nil {
						t.Fatalf("%s: %v", f.name, err)
					}
					got := renderViews(t, snap)
					if err := snap.Close(); err != nil {
						t.Fatal(err)
					}
					if got != eager {
						t.Errorf("engine.Open over %s renders differently from eager v2:\n%s", f.name, firstDiff(eager, got))
					}
				}
			})
		}
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
