package expdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/framing"
	"repro/internal/metric"
)

// v3WithTree returns the v3 image data with its tree section payload
// replaced by tree. Every section is laid out again and the section, index
// and trailer checksums are recomputed, so the image passes every CRC and
// the tree decoder itself sees the hostile payload.
func v3WithTree(tb testing.TB, data, tree []byte) []byte {
	tb.Helper()
	secs, err := parseV3Index(data)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString(dbMagicV3Full)
	aw := framing.NewAlignedWriter(&buf, int64(len(dbMagicV3Full)))
	idx := make([]byte, len(secs)*v3EntrySize)
	for i, s := range secs {
		payload := data[s.off : s.off+s.length]
		if s.kind == dbSecTree {
			payload = tree
		}
		sec, err := aw.Section(payload)
		if err != nil {
			tb.Fatal(err)
		}
		en := idx[i*v3EntrySize:]
		en[0], en[1] = s.kind, s.plane
		binary.LittleEndian.PutUint32(en[4:], s.col)
		binary.LittleEndian.PutUint64(en[8:], uint64(sec.Offset))
		binary.LittleEndian.PutUint64(en[16:], uint64(sec.Length))
		binary.LittleEndian.PutUint32(en[24:], sec.CRC)
	}
	indexOff := aw.Offset()
	buf.Write(idx)
	var tr [v3TrailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:], uint64(indexOff))
	binary.LittleEndian.PutUint64(tr[8:], uint64(len(secs)))
	binary.LittleEndian.PutUint32(tr[16:], framing.Checksum(idx))
	copy(tr[24:], v3IndexTag)
	buf.Write(tr[:])
	return buf.Bytes()
}

// hostileBase is a v3 image with an empty tree and no column sections, so
// any tree payload spliced into it decodes without column row mismatches.
// String ref 0 ("") and 1 (the program name) are valid.
func hostileBase(tb testing.TB) []byte {
	tb.Helper()
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("CYCLES", "cycles", 1); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := New(core.NewTree("hostile", reg)).WriteBinaryV3(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// treePayload encodes a v3 tree section: the root count, then the given
// records, each a list of uvarints (normally 10: see readTreeSectionV3).
func treePayload(roots uint64, recs ...[]uint64) []byte {
	var b []byte
	b = binary.AppendUvarint(b, roots)
	for _, r := range recs {
		for _, v := range r {
			b = binary.AppendUvarint(b, v)
		}
	}
	return b
}

// rec is one node record: kind, name ref, file ref, line, id, call line,
// call file ref, module ref, flags, child count.
func rec(kind core.Kind, line, children uint64) []uint64 {
	return []uint64{uint64(kind), 1, 1, line, 0, 0, 0, 0, 0, children}
}

// fanout is a frame with n statement children on lines 1..n, except that
// child dupAt (when positive) repeats line 1.
func fanout(n, dupAt int) []byte {
	recs := [][]uint64{rec(core.KindFrame, 1, uint64(n))}
	for i := 1; i <= n; i++ {
		line := uint64(i)
		if i == dupAt {
			line = 1
		}
		recs = append(recs, rec(core.KindStmt, line, 0))
	}
	return treePayload(1, recs...)
}

// chain is a tree of n nodes, each the only child of the one before.
func chain(n int) []byte {
	b := binary.AppendUvarint(nil, 1)
	for i := 0; i < n; i++ {
		var children uint64 = 1
		if i == n-1 {
			children = 0
		}
		for _, v := range rec(core.KindLoop, uint64(i), children) {
			b = binary.AppendUvarint(b, v)
		}
	}
	return b
}

// openHostile decodes a spliced image through both v3 readers, failing the
// test on a panic.
func openHostile(t *testing.T, img []byte) (nodes int, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("decode panicked: %v", r)
		}
	}()
	db, err := newMappedDB(img)
	if err != nil {
		return 0, err
	}
	e, err := db.Experiment()
	if _, rerr := ReadBinary(bytes.NewReader(img)); (rerr == nil) != (err == nil) {
		t.Fatalf("mapped and stream reads disagree: %v vs %v", err, rerr)
	}
	if err != nil {
		return 0, err
	}
	return e.Tree.NumNodes(), nil
}

func TestV3TreeHostileSections(t *testing.T) {
	base := hostileBase(t)
	valid := treePayload(2, rec(core.KindFrame, 1, 1), rec(core.KindStmt, 2, 0), rec(core.KindFrame, 3, 0))
	if n, err := openHostile(t, v3WithTree(t, base, valid)); err != nil || n != 3 {
		t.Fatalf("valid spliced tree: %d nodes, %v", n, err)
	}
	if n, err := openHostile(t, v3WithTree(t, base, fanout(40, 0))); err != nil || n != 41 {
		t.Fatalf("valid wide tree: %d nodes, %v", n, err)
	}
	if n, err := openHostile(t, v3WithTree(t, base, chain(100_001))); err != nil || n != 100_001 {
		t.Fatalf("chain at the depth limit: %d nodes, %v", n, err)
	}

	badKind := rec(core.KindRoot, 1, 0)
	badRef := rec(core.KindFrame, 1, 0)
	badRef[6] = 1 << 20
	overflow := bytes.Repeat([]byte{0xff}, 10)
	cases := []struct {
		name string
		tree []byte
		want string
	}{
		{"duplicate siblings, narrow", fanout(4, 3), "duplicate sibling"},
		{"duplicate siblings, wide", fanout(40, 37), "duplicate sibling"},
		{"duplicate roots", treePayload(2, rec(core.KindFrame, 1, 0), rec(core.KindFrame, 1, 0)), "duplicate sibling"},
		{"bad kind root", treePayload(1, badKind), "bad node kind 0"},
		{"bad kind past last", treePayload(1, rec(core.KindCallSite+1, 1, 0)), "bad node kind"},
		{"string ref out of range", treePayload(1, badRef), "string ref 1048576 out of range"},
		{"child count past the section", treePayload(1, rec(core.KindFrame, 1, 2), rec(core.KindStmt, 1, 0)), "implausible child count 2"},
		{"root count past the section", treePayload(3, rec(core.KindFrame, 1, 0)), "implausible root count 3"},
		{"truncated varint", append(treePayload(1, rec(core.KindFrame, 1, 0)), 0x80), "unexpected EOF"},
		{"record cut short", treePayload(1, rec(core.KindFrame, 1, 0)[:9]), "not a root count plus 10 per node"},
		{"varint overflow", append(append(treePayload(1), overflow...), treePayload(0, rec(core.KindFrame, 1, 0))[1:]...), "overflows"},
		{"trailing bytes", treePayload(1, rec(core.KindFrame, 1, 0), rec(core.KindFrame, 2, 0)), "trailing bytes"},
		{"empty", nil, "unexpected EOF"},
		{"too deep", chain(100_002), "too deep"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := openHostile(t, v3WithTree(t, base, c.tree))
			var se *SectionError
			if !errors.As(err, &se) || se.Section != "tree" || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want a tree SectionError about %q, got %v", c.want, err)
			}
			if dup := c.want == "duplicate sibling"; errors.Is(err, core.ErrDuplicateSibling) != dup {
				t.Fatalf("errors.Is(err, core.ErrDuplicateSibling) = %v, want %v", !dup, dup)
			}
		})
	}
}

// TestV3TreeDecodeRows pins the row contract of the one-pass decode:
// preorder node i owns store row i+1, and decoded child lists carry no
// spare capacity.
func TestV3TreeDecodeRows(t *testing.T) {
	e := fixture(t)
	db, err := newMappedDB(v3Bytes(t, e))
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	var walkErr error
	core.Walk(got.Tree.Root, func(n *core.Node) bool {
		if walkErr != nil {
			return false
		}
		if int(n.Base.Row()) != i {
			walkErr = fmt.Errorf("preorder node %d (%s) has row %d", i, n.Label(), n.Base.Row())
		}
		if len(n.Children) != cap(n.Children) {
			walkErr = fmt.Errorf("%s: %d children, capacity %d", n.Label(), len(n.Children), cap(n.Children))
		}
		if n != got.Tree.Root && db.nodes[i-1] != n {
			walkErr = fmt.Errorf("nodes[%d] is not preorder node %d", i-1, i)
		}
		i++
		return true
	})
	if walkErr != nil {
		t.Fatal(walkErr)
	}
	if i != len(db.nodes)+1 {
		t.Fatalf("walked %d nodes, decoded %d", i, len(db.nodes)+1)
	}
}
