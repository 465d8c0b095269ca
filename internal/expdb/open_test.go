package expdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/framing"
	"repro/internal/ingest"
	"repro/internal/metric"
)

// v2Bytes encodes an experiment in the v2 framed format.
func v2Bytes(t *testing.T, e *Experiment) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstSummaryCol returns the ID of the first summary column.
func firstSummaryCol(t *testing.T, e *Experiment) int {
	t.Helper()
	for _, d := range e.Tree.Reg.Columns() {
		if d.Kind == metric.Summary {
			return d.ID
		}
	}
	t.Fatal("fixture has no summary column")
	return -1
}

// maxAbsIncl returns the largest magnitude of column id over every scope's
// inclusive vector.
func maxAbsIncl(e *Experiment, id int) float64 {
	var m float64
	core.Walk(e.Tree.Root, func(n *core.Node) bool {
		if v := n.Incl.Get(id); v > m || -v > m {
			if v < 0 {
				v = -v
			}
			m = v
		}
		return true
	})
	return m
}

// openFile writes data to a file and opens it with Open.
func openFile(t *testing.T, data []byte) (*MappedDB, *Experiment) {
	t.Helper()
	db, err := Open(v3File(t, data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	exp, err := db.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	return db, exp
}

// v2Payload returns the payload of the v2 section id in data.
func v2Payload(t *testing.T, data []byte, id byte) []byte {
	t.Helper()
	fr, err := framing.NewReader(bytes.NewReader(data), int64(len(data)), dbMagicV2)
	if err != nil {
		t.Fatal(err)
	}
	for {
		got, payload, err := fr.Next()
		if err == io.EOF {
			t.Fatalf("no section %d in stream", id)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got == id {
			return payload
		}
	}
}

// TestLazyOpenSkipsUntouchedSections is the section-access counter test
// for both arms of Open. A v3 file is mapped and decodes only its index.
// A v2 file is imported: its metadata is decoded once, while the column
// sections of the imported image are still checksummed only on first
// touch, once each, and provenance only when asked for.
func TestLazyOpenSkipsUntouchedSections(t *testing.T) {
	e := fixture(t)
	e.Provenance = &ingest.Report{Attempted: 3, Merged: 3}

	mapped, err := Open(v3File(t, v3Bytes(t, e)))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if reads := mapped.SectionReads(); reads["index"] != 1 || len(reads) != 1 {
		t.Fatalf("v3 open decoded more than the index: %v", reads)
	}

	db, exp := openFile(t, v2Bytes(t, e))
	if db.Mapped() {
		t.Fatal("imported database claims to be mapped")
	}
	reads := db.SectionReads()
	for _, s := range []string{"strings", "header", "metrics", "tree"} {
		if reads[s] != 1 {
			t.Fatalf("metadata section %s decoded %d times at open, want 1", s, reads[s])
		}
	}
	if reads["column"] != 0 || reads["provenance"] != 0 {
		t.Fatalf("deferred sections checked eagerly: %v", reads)
	}

	sum := firstSummaryCol(t, exp)
	if err := db.NeedColumn(sum); err != nil {
		t.Fatal(err)
	}
	touched := db.SectionReads()["column"]
	if touched == 0 {
		t.Fatal("touching a column checked no column section")
	}
	if err := db.NeedColumn(sum); err != nil {
		t.Fatal(err)
	}
	if n := db.SectionReads()["column"]; n != touched {
		t.Fatalf("column checks not memoized: %d after repeat, want %d", n, touched)
	}
	if m := maxAbsIncl(exp, sum); m == 0 {
		t.Fatal("imported summary column is zero")
	}

	rep, err := db.Provenance()
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Attempted != 3 {
		t.Fatalf("provenance report = %+v", rep)
	}
	if _, err := db.Provenance(); err != nil {
		t.Fatal(err)
	}
	if n := db.SectionReads()["provenance"]; n != 1 {
		t.Fatalf("provenance decoded %d times, want 1", n)
	}
}

// TestLazyMaterializeMatchesEager checks that an imported v2 database,
// once VerifyAll has checked every section, is exactly the experiment the
// eager reader builds, provenance included.
func TestLazyMaterializeMatchesEager(t *testing.T) {
	e := fixture(t)
	e.Provenance = &ingest.Report{Attempted: 4, Merged: 3,
		Bad: []ingest.BadRank{{Path: "rank3", Rank: 3, Class: ingest.ClassTruncated}}}
	data := v2Bytes(t, e)

	eager, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsIncl(eager, firstSummaryCol(t, eager)) == 0 {
		t.Fatal("eager summary column is zero; fixture too weak")
	}

	db, exp := openFile(t, data)
	if err := db.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	equalExperiments(t, eager, exp)
	if len(exp.Notes) != 0 {
		t.Fatalf("intact database imported with notes: %q", exp.Notes)
	}
	rep := exp.Provenance
	if rep == nil || rep.Attempted != 4 || len(rep.Bad) != 1 {
		t.Fatalf("provenance report = %+v", rep)
	}
}

// TestLazyDamagedOverridesDegradeOnAccess flips a bit inside the overrides
// payload: the open succeeds, the imported experiment carries exactly the
// note the eager reader reports, and the dropped summary column reads zero
// on access — not an error, never a panic.
func TestLazyDamagedOverridesDegradeOnAccess(t *testing.T) {
	e := fixture(t)
	data := v2Bytes(t, e)
	ovPayload := v2Payload(t, data, dbSecOverrides)
	at := bytes.LastIndex(data, ovPayload)
	if at < 0 {
		t.Fatal("overrides payload not found in stream")
	}
	data[at+len(ovPayload)/2] ^= 0x40

	eager, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	const note = "overrides section failed its checksum; summary and computed columns were dropped"
	if len(eager.Notes) != 1 || eager.Notes[0] != note {
		t.Fatalf("eager notes = %q", eager.Notes)
	}

	db, exp := openFile(t, data)
	if got := exp.Notes; len(got) != 1 || got[0] != note {
		t.Fatalf("imported notes = %q, want %q", got, note)
	}
	sum := firstSummaryCol(t, exp)
	if err := db.NeedColumn(sum); err != nil {
		t.Fatalf("checksum damage must degrade, not error: %v", err)
	}
	if m := maxAbsIncl(exp, sum); m != 0 {
		t.Fatalf("dropped summary column reads %g, want 0", m)
	}
	equalExperiments(t, eager, exp)
}

// TestLazyMalformedOverridesTypedError rebuilds the stream with an
// overrides payload that passes its checksum but is garbage: Read and Open
// both fail with the typed *SectionError for the overrides section.
func TestLazyMalformedOverridesTypedError(t *testing.T) {
	e := fixture(t)
	data := v2Bytes(t, e)

	var out bytes.Buffer
	fw, err := framing.NewWriter(&out, dbMagicV2)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := framing.NewReader(bytes.NewReader(data), int64(len(data)), dbMagicV2)
	if err != nil {
		t.Fatal(err)
	}
	for {
		id, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if id == dbSecOverrides {
			// An absurd entry count: well-framed, correctly checksummed,
			// semantically malformed.
			payload = binary.AppendUvarint(nil, 1<<40)
		}
		if err := fw.Section(id, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	var se *SectionError
	if _, err := Read(bytes.NewReader(out.Bytes())); !errors.As(err, &se) || se.Section != "overrides" {
		t.Fatalf("eager read of malformed overrides: %v", err)
	}
	if _, err := Open(v3File(t, out.Bytes())); !errors.As(err, &se) || se.Section != "overrides" {
		t.Fatalf("open of malformed overrides: %v, want *SectionError for overrides", err)
	}
}

// TestLazyOpenEagerFallback opens v1 and XML databases: neither has a
// mappable layout, so both are decoded eagerly and imported, and the
// imported experiment equals the eager decode.
func TestLazyOpenEagerFallback(t *testing.T) {
	e := fixture(t)
	for _, tc := range []struct {
		name  string
		write func(*Experiment, *bytes.Buffer) error
	}{
		{"v1", func(e *Experiment, b *bytes.Buffer) error { return e.WriteBinaryV1(b) }},
		{"xml", func(e *Experiment, b *bytes.Buffer) error { return e.WriteXML(b) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(e, &buf); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			eager, err := Read(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			db, exp := openFile(t, data)
			if db.Mapped() {
				t.Fatalf("%s import claims to be mapped", tc.name)
			}
			if err := db.VerifyAll(); err != nil {
				t.Fatal(err)
			}
			equalExperiments(t, eager, exp)
			if m := maxAbsIncl(exp, firstSummaryCol(t, exp)); m == 0 {
				t.Fatal("summary column empty after import")
			}
		})
	}
}

// TestLazyOpenErrors mirrors the eager reader's fatal cases: truncation,
// an empty or missing file and a damaged required section fail at Open
// with an error naming the file.
func TestLazyOpenErrors(t *testing.T) {
	e := fixture(t)
	data := v2Bytes(t, e)
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	for _, path := range []string{
		write("truncated.db", data[:len(data)/2]),
		write("empty.db", nil),
		write("truncated-v3.db", v3Bytes(t, e)[:40]),
		filepath.Join(dir, "missing.db"),
	} {
		if _, err := Open(path); err == nil {
			t.Fatalf("%s opened", path)
		} else if !bytes.Contains([]byte(err.Error()), []byte(path)) {
			t.Fatalf("error does not name the file: %v", err)
		}
	}

	// Damage the tree section: required, so the open fails with the same
	// typed error the eager reader returns.
	treePayload := v2Payload(t, data, dbSecTree)
	at := bytes.LastIndex(data, treePayload)
	if at < 0 {
		t.Fatal("tree payload not found")
	}
	data[at+len(treePayload)/2] ^= 0x01
	var se *SectionError
	if _, err := Read(bytes.NewReader(data)); !errors.As(err, &se) || se.Section != "tree" {
		t.Fatalf("eager read of damaged tree section: %v", err)
	}
	if _, err := Open(write("badtree.db", data)); !errors.As(err, &se) || se.Section != "tree" {
		t.Fatalf("damaged tree section: %v", err)
	}
}
