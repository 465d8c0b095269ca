package diag

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expdb"
)

func TestResidencyByKind(t *testing.T) {
	spans := []KindSpan{
		{Kind: "column", Data: make([]byte, 100)},
		{Kind: "trace", Data: make([]byte, 50)},
		{Kind: "column", Data: make([]byte, 28)},
		{Kind: "pyramid", Data: nil},
	}
	lines := ResidencyByKind(spans)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3 (column/trace/pyramid): %v", len(lines), lines)
	}
	// First-appearance order, and spans of the same kind are summed.
	for i, prefix := range []string{"column:", "trace:", "pyramid:"} {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Fatalf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
	if !strings.Contains(lines[0], "of 128 B") {
		t.Fatalf("column spans not aggregated: %q", lines[0])
	}
	if !strings.Contains(lines[2], "of 0 B") {
		t.Fatalf("empty pyramid span misreported: %q", lines[2])
	}
}

func TestResidencyByKindEmpty(t *testing.T) {
	if lines := ResidencyByKind(nil); len(lines) != 0 {
		t.Fatalf("nil spans produced lines: %v", lines)
	}
}

// An imported legacy database lives in heap memory: ReportResidency says
// so instead of probing heap pages. A v3 file reports the whole image
// plus per-kind lines when it is truly mapped.
func TestReportResidencyMappedOnly(t *testing.T) {
	dir := t.TempDir()
	e := expdb.New(core.Fig1Tree())
	for name, write := range map[string]func(io.Writer) error{
		"legacy.db": e.WriteBinary,
		"v3.db":     e.WriteBinaryV3,
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		sn, err := engine.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		ReportResidency(&out, "probe", sn)
		mapped := sn.Mapped()
		sn.Close()
		if name == "legacy.db" && mapped {
			t.Fatal("imported database reported as mapped")
		}
		if !mapped {
			if out.String() != "probe: database is not mapped\n" {
				t.Fatalf("%s: report = %q, want not mapped", name, out.String())
			}
			continue
		}
		if !strings.HasPrefix(out.String(), "probe: resident") || !strings.Contains(out.String(), "probe:   tree:") {
			t.Fatalf("%s: report = %q", name, out.String())
		}
	}
}
