package expdb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/framing"
	"repro/internal/ingest"
	"repro/internal/intern"
)

// Compact binary database formats.
//
// v1 ("CPDB1") is a bare varint stream:
//
//	magic "CPDB1"
//	nStrings, strings (uvarint len + bytes)   -- string table
//	programRef, ranks
//	nMetrics { nameRef unitRef kindByte period formulaRef opByte src }
//	node := kindByte nameRef fileRef line id callLine callFileRef modRef
//	        flags
//	        nBase   { col, float64bits }*
//	        nIncl   { col, float64bits }*     -- override lists inline
//	        nExcl   { col, float64bits }*
//	        nChildren node*
//
// v2 ("CPDB2") wraps the same encodings in the checksummed section
// container of internal/framing:
//
//	magic "CPDB2"
//	section 1 (strings):    nStrings, strings
//	section 2 (header):     programRef, ranks
//	section 3 (metrics):    nMetrics { ... as v1 ... }
//	section 4 (tree):       nRoots, preorder nodes WITHOUT override lists
//	section 5 (overrides):  nEntries { nodeIdx, nIncl {col,f64}*, nExcl {col,f64}* }
//	section 6 (provenance): attempted, merged, nBad { path, rank+1, offset+1, class, message }
//	end marker
//
// Sections 1-4 are required: damage to any of them is fatal (SectionError).
// Sections 5 and 6 are optional refinements — a failed checksum there
// degrades the open (the drop is recorded in Experiment.Notes) instead of
// losing the whole database. Node indexes in section 5 are preorder
// positions in section 4's node stream.
//
// All integers are uvarints except float64 payloads (fixed 8 bytes LE).
// Strings are interned: names, files and modules repeat across thousands
// of scopes, which is the main reason this format is much smaller than the
// XML (Section IX's motivation).

const (
	dbMagic   = "CPDB1"
	dbMagicV2 = "CPDB2"
)

// v2 section ids.
const (
	dbSecStrings    byte = 1
	dbSecHeader     byte = 2
	dbSecMetrics    byte = 3
	dbSecTree       byte = 4
	dbSecOverrides  byte = 5
	dbSecProvenance byte = 6
)

func sectionName(id byte) string {
	switch id {
	case dbSecStrings:
		return "strings"
	case dbSecHeader:
		return "header"
	case dbSecMetrics:
		return "metrics"
	case dbSecTree:
		return "tree"
	case dbSecOverrides:
		return "overrides"
	case dbSecProvenance:
		return "provenance"
	case dbSecTrace:
		return "trace"
	case dbSecPyramid:
		return "pyramid"
	case dbSecTraceMeta:
		return "tracemeta"
	}
	return "framing"
}

type strTable struct {
	byVal map[string]uint64
	bySym map[intern.Sym]uint64
	vals  []string
}

func newStrTable() *strTable {
	t := &strTable{byVal: map[string]uint64{}, bySym: map[intern.Sym]uint64{}}
	t.ref("") // index 0 is always the empty string
	return t
}

func (t *strTable) ref(s string) uint64 {
	if i, ok := t.byVal[s]; ok {
		return i
	}
	i := uint64(len(t.vals))
	t.byVal[s] = i
	t.vals = append(t.vals, s)
	return i
}

// refSym references an interned symbol's string. The sym-keyed cache makes
// the per-node path a single integer map probe; misses delegate to ref, so
// table construction order — and hence the output bytes — are exactly those
// of the string-keyed writer.
func (t *strTable) refSym(y intern.Sym) uint64 {
	if i, ok := t.bySym[y]; ok {
		return i
	}
	i := t.ref(y.String())
	t.bySym[y] = i
	return i
}

// intern runs the shared pass 1: every string the experiment will
// reference goes into the table, in a deterministic order.
func (e *Experiment) internStrings(tab *strTable) {
	tab.ref(e.Program)
	for _, d := range descsOf(e.Tree.Reg) {
		tab.ref(d.Name)
		tab.ref(d.Unit)
		tab.ref(d.Formula)
	}
	core.Walk(e.Tree.Root, func(n *core.Node) bool {
		tab.refSym(n.Name)
		tab.refSym(n.File)
		tab.refSym(n.CallFile)
		tab.refSym(n.Mod)
		return true
	})
}

func kindByteOf(kind string) (uint64, error) {
	switch kind {
	case "raw":
		return 0, nil
	case "derived":
		return 1, nil
	case "summary":
		return 2, nil
	case "computed":
		return 3, nil
	}
	return 0, fmt.Errorf("expdb: unknown kind %q", kind)
}

func opByteOf(op string) (uint64, error) {
	switch op {
	case "":
		return 0, nil
	case "sum":
		return 1, nil
	case "mean":
		return 2, nil
	case "min":
		return 3, nil
	case "max":
		return 4, nil
	case "stddev":
		return 5, nil
	}
	return 0, fmt.Errorf("expdb: unknown op %q", op)
}

var (
	kindNames = []string{"raw", "derived", "summary", "computed"}
	opNames   = []string{"", "sum", "mean", "min", "max", "stddev"}
)

// Buffer-backed encoding helpers for the v2 sections (bytes.Buffer writes
// cannot fail).

func bufU(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b.Write(tmp[:n])
}

func bufF(b *bytes.Buffer, v float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	b.Write(tmp[:])
}

func bufS(b *bytes.Buffer, s string) {
	bufU(b, uint64(len(s)))
	b.WriteString(s)
}

// WriteBinary serializes the experiment in the current (v2, checksummed)
// format.
func (e *Experiment) WriteBinary(w io.Writer) error {
	tab := newStrTable()
	e.internStrings(tab)

	var strs bytes.Buffer
	bufU(&strs, uint64(len(tab.vals)))
	for _, s := range tab.vals {
		bufS(&strs, s)
	}

	var hdr bytes.Buffer
	bufU(&hdr, tab.ref(e.Program))
	bufU(&hdr, uint64(e.NRanks))

	metricsPayload, err := e.encodeMetrics(tab)
	if err != nil {
		return err
	}
	treePayload, ovs := e.encodeTree(tab)

	fw, err := framing.NewWriter(w, dbMagicV2)
	if err != nil {
		return err
	}
	for _, sec := range []struct {
		id      byte
		payload []byte
	}{
		{dbSecStrings, strs.Bytes()},
		{dbSecHeader, hdr.Bytes()},
		{dbSecMetrics, metricsPayload},
		{dbSecTree, treePayload},
	} {
		if err := fw.Section(sec.id, sec.payload); err != nil {
			return err
		}
	}
	if len(ovs) > 0 {
		if err := fw.Section(dbSecOverrides, encodeOverrides(ovs)); err != nil {
			return err
		}
	}
	if e.Provenance != nil {
		if err := fw.Section(dbSecProvenance, encodeProvenance(e.Provenance)); err != nil {
			return err
		}
	}
	return fw.Close()
}

func (e *Experiment) encodeMetrics(tab *strTable) ([]byte, error) {
	descs := descsOf(e.Tree.Reg)
	var b bytes.Buffer
	bufU(&b, uint64(len(descs)))
	for _, d := range descs {
		kb, err := kindByteOf(d.Kind)
		if err != nil {
			return nil, err
		}
		ob, err := opByteOf(d.Op)
		if err != nil {
			return nil, err
		}
		for _, v := range []uint64{tab.ref(d.Name), tab.ref(d.Unit), kb, d.Period, tab.ref(d.Formula), ob, uint64(d.Source)} {
			bufU(&b, v)
		}
	}
	return b.Bytes(), nil
}

// ovEntry is one node's override values, keyed by the node's preorder
// position in the tree section.
type ovEntry struct {
	idx  uint64
	incl []colVal
	excl []colVal
}

// encodeTree emits the preorder node stream (no override lists) and
// collects the overrides keyed by preorder index for section 5.
func (e *Experiment) encodeTree(tab *strTable) ([]byte, []ovEntry) {
	inclCols, exclCols := overrideCols(e.Tree.Reg)
	var b bytes.Buffer
	var ovs []ovEntry
	idx := uint64(0)
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		myIdx := idx
		idx++
		flags := uint64(0)
		if n.NoSource {
			flags |= 1
		}
		for _, v := range []uint64{
			uint64(n.Kind),
			tab.refSym(n.Name), tab.refSym(n.File), uint64(n.Line), n.ID,
			uint64(n.CallLine), tab.refSym(n.CallFile), tab.refSym(n.Mod),
			flags,
		} {
			bufU(&b, v)
		}
		bufU(&b, uint64(n.Base.Len()))
		n.Base.Range(func(id int, v float64) {
			bufU(&b, uint64(id))
			bufF(&b, v)
		})
		incl := overrideValues(&n.Incl, inclCols)
		excl := overrideValues(&n.Excl, exclCols)
		if len(incl)+len(excl) > 0 {
			ovs = append(ovs, ovEntry{idx: myIdx, incl: incl, excl: excl})
		}
		bufU(&b, uint64(len(n.Children)))
		for _, c := range n.Children {
			walk(c)
		}
	}
	bufU(&b, uint64(len(e.Tree.Root.Children)))
	for _, c := range e.Tree.Root.Children {
		walk(c)
	}
	// The root never appears in the node stream, so its overrides ride in
	// section 5 under the sentinel index one past the last preorder node.
	incl := overrideValues(&e.Tree.Root.Incl, inclCols)
	excl := overrideValues(&e.Tree.Root.Excl, exclCols)
	if len(incl)+len(excl) > 0 {
		ovs = append(ovs, ovEntry{idx: idx, incl: incl, excl: excl})
	}
	return b.Bytes(), ovs
}

func encodeOverrides(ovs []ovEntry) []byte {
	var b bytes.Buffer
	bufU(&b, uint64(len(ovs)))
	for _, ov := range ovs {
		bufU(&b, ov.idx)
		for _, vals := range [][]colVal{ov.incl, ov.excl} {
			bufU(&b, uint64(len(vals)))
			for _, cv := range vals {
				bufU(&b, uint64(cv.col))
				bufF(&b, cv.val)
			}
		}
	}
	return b.Bytes()
}

func encodeProvenance(rep *ingest.Report) []byte {
	var b bytes.Buffer
	bufU(&b, uint64(rep.Attempted))
	bufU(&b, uint64(rep.Merged))
	bufU(&b, uint64(len(rep.Bad)))
	for _, bad := range rep.Bad {
		bufS(&b, bad.Path)
		bufU(&b, uint64(bad.Rank+1))   // 0 encodes "unknown" (-1)
		bufU(&b, uint64(bad.Offset+1)) // likewise
		bufU(&b, uint64(bad.Class))
		bufS(&b, bad.Message)
	}
	return b.Bytes()
}

// WriteBinaryV1 serializes the experiment in the legacy unchecksummed v1
// format, kept for compatibility tests and old-format consumers. It does
// not carry provenance.
func (e *Experiment) WriteBinaryV1(w io.Writer) error {
	tab := newStrTable()
	e.internStrings(tab)

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(dbMagic); err != nil {
		return err
	}
	putU := func(v uint64) error {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putF := func(v float64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, err := bw.Write(buf[:])
		return err
	}
	if err := putU(uint64(len(tab.vals))); err != nil {
		return err
	}
	for _, s := range tab.vals {
		if err := putU(uint64(len(s))); err != nil {
			return err
		}
		if _, err := bw.WriteString(s); err != nil {
			return err
		}
	}
	if err := putU(tab.ref(e.Program)); err != nil {
		return err
	}
	if err := putU(uint64(e.NRanks)); err != nil {
		return err
	}
	descs := descsOf(e.Tree.Reg)
	if err := putU(uint64(len(descs))); err != nil {
		return err
	}
	for _, d := range descs {
		kb, err := kindByteOf(d.Kind)
		if err != nil {
			return err
		}
		ob, err := opByteOf(d.Op)
		if err != nil {
			return err
		}
		for _, v := range []uint64{tab.ref(d.Name), tab.ref(d.Unit), kb, d.Period, tab.ref(d.Formula), ob, uint64(d.Source)} {
			if err := putU(v); err != nil {
				return err
			}
		}
	}

	inclOv, exclOv := overrideCols(e.Tree.Reg)
	var writeNode func(n *core.Node) error
	writeNode = func(n *core.Node) error {
		flags := uint64(0)
		if n.NoSource {
			flags |= 1
		}
		hdr := []uint64{
			uint64(n.Kind),
			tab.refSym(n.Name), tab.refSym(n.File), uint64(n.Line), n.ID,
			uint64(n.CallLine), tab.refSym(n.CallFile), tab.refSym(n.Mod),
			flags,
		}
		for _, v := range hdr {
			if err := putU(v); err != nil {
				return err
			}
		}
		var verr error
		if err := putU(uint64(n.Base.Len())); err != nil {
			return err
		}
		n.Base.Range(func(id int, v float64) {
			if verr != nil {
				return
			}
			if verr = putU(uint64(id)); verr == nil {
				verr = putF(v)
			}
		})
		if verr != nil {
			return verr
		}
		for _, ov := range [][]colVal{overrideValues(&n.Incl, inclOv), overrideValues(&n.Excl, exclOv)} {
			if err := putU(uint64(len(ov))); err != nil {
				return err
			}
			for _, cv := range ov {
				if err := putU(uint64(cv.col)); err != nil {
					return err
				}
				if err := putF(cv.val); err != nil {
					return err
				}
			}
		}
		if err := putU(uint64(len(n.Children))); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := writeNode(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := putU(uint64(len(e.Tree.Root.Children))); err != nil {
		return err
	}
	for _, c := range e.Tree.Root.Children {
		if err := writeNode(c); err != nil {
			return err
		}
	}
	// Optional trailer: the root's own overrides, which the per-node
	// stream above cannot carry. Omitted when empty so files from trees
	// without root overrides stay byte-identical to the original format;
	// the reader treats EOF here as "no trailer".
	rootIncl := overrideValues(&e.Tree.Root.Incl, inclOv)
	rootExcl := overrideValues(&e.Tree.Root.Excl, exclOv)
	if len(rootIncl)+len(rootExcl) > 0 {
		for _, ov := range [][]colVal{rootIncl, rootExcl} {
			if err := putU(uint64(len(ov))); err != nil {
				return err
			}
			for _, cv := range ov {
				if err := putU(uint64(cv.col)); err != nil {
					return err
				}
				if err := putF(cv.val); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Read opens a database in any supported format — binary v1, v2, v3 or
// XML — sniffing the leading bytes.
func Read(r io.Reader) (*Experiment, error) { return read(r, true) }

// ReadBinary deserializes any compact format (sniffing the magic) and
// recomputes presented metrics; XML input is rejected.
func ReadBinary(r io.Reader) (*Experiment, error) { return read(r, false) }

func read(r io.Reader, xml bool) (*Experiment, error) {
	size := framing.SizeOf(r)
	br := bufio.NewReader(r)
	head, err := br.Peek(len(dbMagicV3Full))
	if err != nil && len(head) == 0 {
		return nil, fmt.Errorf("expdb: %w", noEOF(err))
	}
	switch sniff(head) {
	case formatV1:
		return readBinaryV1(br, size)
	case formatV2:
		return readBinaryV2(br, size)
	case formatV3:
		return readBinaryV3(br)
	}
	if !xml {
		return nil, fmt.Errorf("expdb: bad magic %q", head[:min(len(head), len(dbMagic))])
	}
	return ReadXML(br)
}

// format is a database encoding as identified by sniff.
type format int

const (
	formatXML format = iota
	formatV1
	formatV2
	formatV3
)

// sniff identifies a database's encoding from its leading bytes (up to
// len(dbMagicV3Full) of them). Input without a binary magic is taken for
// XML. Every open path picks its decoder here.
func sniff(head []byte) format {
	switch {
	case bytes.HasPrefix(head, []byte(dbMagicV3Full)):
		return formatV3
	case bytes.HasPrefix(head, []byte(dbMagicV2)):
		return formatV2
	case bytes.HasPrefix(head, []byte(dbMagic)):
		return formatV1
	}
	return formatXML
}

// noEOF upgrades a bare io.EOF to io.ErrUnexpectedEOF: a database is never
// legitimately empty mid-structure.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func getU(br *bufio.Reader) (uint64, error) { return binary.ReadUvarint(br) }

func getF(br *bufio.Reader) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}

// maxV1Bound is the remaining-input stand-in when the source size is
// unknown (a pure stream): counts then fall back to the fixed caps only.
const maxV1Bound = int64(1) << 62

// readBinaryV1 parses the legacy format. size is the total input length
// including the magic, or -1 when unknown; every count-driven allocation
// is bounded by the bytes actually remaining, so a lying count in a tiny
// file errors out instead of allocating gigabytes.
func readBinaryV1(br *bufio.Reader, size int64) (*Experiment, error) {
	// bufio hides how much of the source was consumed; count the bytes
	// flowing out of br instead (cbr's look-ahead is added back).
	count := &ingest.CountReader{R: br}
	cbr := bufio.NewReader(count)
	remaining := func() int64 {
		if size < 0 {
			return maxV1Bound
		}
		rem := size - count.N + int64(cbr.Buffered())
		if rem < 0 {
			return 0
		}
		return rem
	}

	magic := make([]byte, len(dbMagic))
	if _, err := io.ReadFull(cbr, magic); err != nil {
		return nil, fmt.Errorf("expdb: %w", err)
	}
	if string(magic) != dbMagic {
		return nil, fmt.Errorf("expdb: bad magic %q", magic)
	}

	nStr, err := getU(cbr)
	if err != nil {
		return nil, err
	}
	if nStr > 10_000_000 || int64(nStr) > remaining() {
		return nil, fmt.Errorf("expdb: implausible string count %d", nStr)
	}
	syms, err := readStrTable(cbr, nStr, remaining)
	if err != nil {
		return nil, err
	}
	getSym := func() (intern.Sym, error) {
		i, err := getU(cbr)
		if err != nil {
			return 0, err
		}
		if i >= uint64(len(syms)) {
			return 0, fmt.Errorf("expdb: string ref %d out of range", i)
		}
		return syms[i], nil
	}
	getS := func() (string, error) {
		y, err := getSym()
		return y.String(), err
	}

	e := &Experiment{}
	if e.Program, err = getS(); err != nil {
		return nil, err
	}
	ranks, err := getU(cbr)
	if err != nil {
		return nil, err
	}
	if ranks > math.MaxInt32 {
		return nil, fmt.Errorf("expdb: implausible rank count %d", ranks)
	}
	e.NRanks = int(ranks)

	descs, err := readMetricDescs(cbr, getS, remaining)
	if err != nil {
		return nil, err
	}
	reg, err := rebuildRegistry(descs)
	if err != nil {
		return nil, err
	}
	e.Tree = core.NewTree(e.Program, reg)
	inclOv := map[*core.Node][]colVal{}
	exclOv := map[*core.Node][]colVal{}

	var readNode func(parent *core.Node, depth int) error
	readNode = func(parent *core.Node, depth int) error {
		if depth > 100000 {
			return fmt.Errorf("expdb: tree too deep")
		}
		n, err := readNodeHeader(cbr, parent, getSym)
		if err != nil {
			return err
		}
		if err := readBaseValues(cbr, n, remaining); err != nil {
			return err
		}
		for _, dest := range []map[*core.Node][]colVal{inclOv, exclOv} {
			ns, err := getU(cbr)
			if err != nil {
				return err
			}
			// Each override entry is at least 9 bytes (col + f64).
			if int64(ns) > remaining()/9+1 {
				return fmt.Errorf("expdb: implausible override count %d", ns)
			}
			for i := uint64(0); i < ns; i++ {
				col, err := getU(cbr)
				if err != nil {
					return err
				}
				v, err := getF(cbr)
				if err != nil {
					return err
				}
				dest[n] = append(dest[n], colVal{col: int(col), val: v})
			}
		}
		nc, err := getU(cbr)
		if err != nil {
			return err
		}
		if int64(nc) > remaining() {
			return fmt.Errorf("expdb: implausible child count %d", nc)
		}
		for i := uint64(0); i < nc; i++ {
			if err := readNode(n, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	nRoots, err := getU(cbr)
	if err != nil {
		return nil, err
	}
	if int64(nRoots) > remaining() {
		return nil, fmt.Errorf("expdb: implausible root count %d", nRoots)
	}
	for i := uint64(0); i < nRoots; i++ {
		if err := readNode(e.Tree.Root, 0); err != nil {
			return nil, err
		}
	}
	// Optional root-override trailer; absent in files written before it
	// existed, so EOF on its first varint means "no trailer".
	for di, dest := range []map[*core.Node][]colVal{inclOv, exclOv} {
		ns, err := getU(cbr)
		if err != nil {
			if di == 0 && err == io.EOF {
				break
			}
			return nil, noEOF(err)
		}
		if int64(ns) > remaining()/9+1 {
			return nil, fmt.Errorf("expdb: implausible override count %d", ns)
		}
		for i := uint64(0); i < ns; i++ {
			col, err := getU(cbr)
			if err != nil {
				return nil, noEOF(err)
			}
			v, err := getF(cbr)
			if err != nil {
				return nil, noEOF(err)
			}
			dest[e.Tree.Root] = append(dest[e.Tree.Root], colVal{col: int(col), val: v})
		}
	}
	if err := e.finalize(inclOv, exclOv); err != nil {
		return nil, err
	}
	return e, nil
}

// readStrTable reads nStr strings, bounded by the remaining input: the
// table grows with the data actually present, so the initial allocation
// never trusts the count. Each distinct string is interned exactly once
// per load through a reused read buffer — intern.B probes without copying
// and only a first-ever-seen string is materialized on the heap.
func readStrTable(br *bufio.Reader, nStr uint64, remaining func() int64) ([]intern.Sym, error) {
	initCap := nStr
	if initCap > 4096 {
		initCap = 4096
	}
	syms := make([]intern.Sym, 0, initCap)
	var sbuf []byte
	for i := uint64(0); i < nStr; i++ {
		l, err := getU(br)
		if err != nil {
			return nil, noEOF(err)
		}
		if l > 1<<20 || int64(l) > remaining() {
			return nil, fmt.Errorf("expdb: implausible string length %d", l)
		}
		if uint64(cap(sbuf)) < l {
			sbuf = make([]byte, l)
		}
		b := sbuf[:l]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, err
		}
		syms = append(syms, intern.B(b))
	}
	return syms, nil
}

// readMetricDescs reads the metric descriptor block shared by both
// versions.
func readMetricDescs(br *bufio.Reader, getS func() (string, error), remaining func() int64) ([]metricDesc, error) {
	nm, err := getU(br)
	if err != nil {
		return nil, noEOF(err)
	}
	// Each descriptor is at least 7 bytes.
	if nm > 4096 || int64(nm) > remaining()/7+1 {
		return nil, fmt.Errorf("expdb: implausible metric count %d", nm)
	}
	descs := make([]metricDesc, nm)
	for i := range descs {
		d := &descs[i]
		if d.Name, err = getS(); err != nil {
			return nil, err
		}
		if d.Unit, err = getS(); err != nil {
			return nil, err
		}
		kb, err := getU(br)
		if err != nil {
			return nil, err
		}
		if kb >= uint64(len(kindNames)) {
			return nil, fmt.Errorf("expdb: bad kind byte %d", kb)
		}
		d.Kind = kindNames[kb]
		if d.Period, err = getU(br); err != nil {
			return nil, err
		}
		if d.Formula, err = getS(); err != nil {
			return nil, err
		}
		ob, err := getU(br)
		if err != nil {
			return nil, err
		}
		if ob >= uint64(len(opNames)) {
			return nil, fmt.Errorf("expdb: bad op byte %d", ob)
		}
		d.Op = opNames[ob]
		src, err := getU(br)
		if err != nil {
			return nil, err
		}
		d.Source = int(src)
	}
	return descs, nil
}

// readNodeHeader reads one node's fixed fields and attaches it under
// parent.
func readNodeHeader(br *bufio.Reader, parent *core.Node, getSym func() (intern.Sym, error)) (*core.Node, error) {
	kindU, err := getU(br)
	if err != nil {
		return nil, noEOF(err)
	}
	if kindU == uint64(core.KindRoot) || kindU > uint64(core.KindCallSite) {
		return nil, fmt.Errorf("expdb: bad node kind %d", kindU)
	}
	var key core.Key
	key.Kind = core.Kind(kindU)
	if key.Name, err = getSym(); err != nil {
		return nil, err
	}
	if key.File, err = getSym(); err != nil {
		return nil, err
	}
	line, err := getU(br)
	if err != nil {
		return nil, err
	}
	key.Line = int(line)
	if key.ID, err = getU(br); err != nil {
		return nil, err
	}
	callLine, err := getU(br)
	if err != nil {
		return nil, err
	}
	callFile, err := getSym()
	if err != nil {
		return nil, err
	}
	mod, err := getSym()
	if err != nil {
		return nil, err
	}
	flags, err := getU(br)
	if err != nil {
		return nil, err
	}
	n := parent.Child(key, true)
	n.CallLine = int(callLine)
	n.CallFile = callFile
	n.Mod = mod
	n.NoSource = flags&1 != 0
	return n, nil
}

// readBaseValues reads one node's directly attributed costs.
func readBaseValues(br *bufio.Reader, n *core.Node, remaining func() int64) error {
	nb, err := getU(br)
	if err != nil {
		return err
	}
	// Each base entry is at least 9 bytes (col + f64).
	if int64(nb) > remaining()/9+1 {
		return fmt.Errorf("expdb: implausible base count %d", nb)
	}
	if nb > 0 && nb <= 1<<16 {
		n.Base.Grow(int(nb))
	}
	for i := uint64(0); i < nb; i++ {
		col, err := getU(br)
		if err != nil {
			return err
		}
		v, err := getF(br)
		if err != nil {
			return err
		}
		n.Base.Add(int(col), v)
	}
	return nil
}

// readBinaryV2 parses the framed format in one pass over the frames.
// Required sections (strings, header, metrics, tree) fail the open on any
// damage. Optional sections (overrides, provenance) degrade: a failed
// checksum drops the section and records the loss in Experiment.Notes.
// Their intact payloads are decoded after the scan, overrides first, so a
// malformed required section always wins over a malformed optional one.
func readBinaryV2(br *bufio.Reader, size int64) (*Experiment, error) {
	fr, err := framing.NewReader(br, size, dbMagicV2)
	if err != nil {
		return nil, fmt.Errorf("expdb: %w", err)
	}
	e := &Experiment{}
	var nodes []*core.Node
	var ovPayloads, provPayloads [][]byte
	var ovDamaged, provDamaged int
	var syms []intern.Sym
	var descs []metricDesc
	var haveStrings, haveHeader, haveMetrics, haveTree bool

	for {
		id, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		var ck *framing.ChecksumError
		if errors.As(err, &ck) {
			switch id {
			case dbSecOverrides:
				ovDamaged++
				continue
			case dbSecProvenance:
				provDamaged++
				continue
			default:
				return nil, &SectionError{Section: sectionName(id), Err: err}
			}
		}
		if err != nil {
			return nil, &SectionError{Section: sectionName(id), Err: err}
		}
		pr := bufio.NewReader(bytes.NewReader(payload))
		// The payload length is CRC-verified, so it is a sound allocation
		// bound for every count inside the section.
		bound := int64(len(payload))
		switch id {
		case dbSecStrings:
			if haveStrings {
				return nil, &SectionError{Section: "strings", Err: fmt.Errorf("duplicate section")}
			}
			nStr, err := getU(pr)
			if err != nil {
				return nil, &SectionError{Section: "strings", Err: noEOF(err)}
			}
			if int64(nStr) > bound {
				return nil, &SectionError{Section: "strings", Err: fmt.Errorf("implausible string count %d", nStr)}
			}
			syms, err = readStrTable(pr, nStr, func() int64 { return bound })
			if err != nil {
				return nil, &SectionError{Section: "strings", Err: err}
			}
			haveStrings = true
		case dbSecHeader:
			if !haveStrings {
				return nil, &SectionError{Section: "header", Err: fmt.Errorf("appears before the strings section")}
			}
			if haveHeader {
				return nil, &SectionError{Section: "header", Err: fmt.Errorf("duplicate section")}
			}
			progRef, err := getU(pr)
			if err != nil {
				return nil, &SectionError{Section: "header", Err: noEOF(err)}
			}
			if progRef >= uint64(len(syms)) {
				return nil, &SectionError{Section: "header", Err: fmt.Errorf("string ref %d out of range", progRef)}
			}
			e.Program = syms[progRef].String()
			ranks, err := getU(pr)
			if err != nil {
				return nil, &SectionError{Section: "header", Err: noEOF(err)}
			}
			if ranks > math.MaxInt32 {
				return nil, &SectionError{Section: "header", Err: fmt.Errorf("implausible rank count %d", ranks)}
			}
			e.NRanks = int(ranks)
			haveHeader = true
		case dbSecMetrics:
			if !haveStrings {
				return nil, &SectionError{Section: "metrics", Err: fmt.Errorf("appears before the strings section")}
			}
			if haveMetrics {
				return nil, &SectionError{Section: "metrics", Err: fmt.Errorf("duplicate section")}
			}
			getS := func() (string, error) {
				i, err := getU(pr)
				if err != nil {
					return "", err
				}
				if i >= uint64(len(syms)) {
					return "", fmt.Errorf("expdb: string ref %d out of range", i)
				}
				return syms[i].String(), nil
			}
			descs, err = readMetricDescs(pr, getS, func() int64 { return bound })
			if err != nil {
				return nil, &SectionError{Section: "metrics", Err: err}
			}
			haveMetrics = true
		case dbSecTree:
			if !haveStrings || !haveHeader || !haveMetrics {
				return nil, &SectionError{Section: "tree", Err: fmt.Errorf("appears before strings/header/metrics")}
			}
			if haveTree {
				return nil, &SectionError{Section: "tree", Err: fmt.Errorf("duplicate section")}
			}
			reg, err := rebuildRegistry(descs)
			if err != nil {
				return nil, &SectionError{Section: "metrics", Err: err}
			}
			e.Tree = core.NewTree(e.Program, reg)
			nodes, err = readTreeSection(pr, e, syms, func() int64 { return bound })
			if err != nil {
				return nil, &SectionError{Section: "tree", Err: err}
			}
			haveTree = true
		case dbSecOverrides:
			if !haveTree {
				return nil, &SectionError{Section: "overrides", Err: fmt.Errorf("appears before the tree section")}
			}
			ovPayloads = append(ovPayloads, payload)
		case dbSecProvenance:
			provPayloads = append(provPayloads, payload)
		default:
			// Unknown sections are skipped (their checksum was verified by
			// Next), but noted: with no newer format version in existence,
			// an unknown id more likely means a damaged id byte, and the
			// open should be visibly degraded either way.
			e.Notes = append(e.Notes, fmt.Sprintf("unknown section %d was skipped", id))
		}
	}
	if !haveStrings || !haveHeader || !haveMetrics || !haveTree {
		missing := ""
		for _, s := range []struct {
			ok   bool
			name string
		}{{haveStrings, "strings"}, {haveHeader, "header"}, {haveMetrics, "metrics"}, {haveTree, "tree"}} {
			if !s.ok {
				missing = s.name
				break
			}
		}
		return nil, &SectionError{Section: missing, Err: fmt.Errorf("section missing")}
	}
	for ; ovDamaged > 0; ovDamaged-- {
		e.Notes = append(e.Notes, "overrides section failed its checksum; summary and computed columns were dropped")
	}
	inclOv := map[*core.Node][]colVal{}
	exclOv := map[*core.Node][]colVal{}
	for _, payload := range ovPayloads {
		bound := int64(len(payload))
		pr := bufio.NewReader(bytes.NewReader(payload))
		if err := readOverridesSection(pr, e.Tree.Root, nodes, inclOv, exclOv, func() int64 { return bound }); err != nil {
			return nil, &SectionError{Section: "overrides", Err: err}
		}
	}
	if err := e.finalize(inclOv, exclOv); err != nil {
		return nil, err
	}
	for ; provDamaged > 0; provDamaged-- {
		e.Notes = append(e.Notes, "provenance section failed its checksum; the quarantine record was dropped")
	}
	for _, payload := range provPayloads {
		bound := int64(len(payload))
		pr := bufio.NewReader(bytes.NewReader(payload))
		rep, err := readProvenanceSection(pr, func() int64 { return bound })
		if err != nil {
			return nil, &SectionError{Section: "provenance", Err: err}
		}
		e.Provenance = rep
	}
	return e, nil
}

// readTreeSection parses section 4's preorder node stream, returning the
// nodes in preorder so section 5 can reference them by index.
func readTreeSection(br *bufio.Reader, e *Experiment, syms []intern.Sym, remaining func() int64) ([]*core.Node, error) {
	getSym := func() (intern.Sym, error) {
		i, err := getU(br)
		if err != nil {
			return 0, err
		}
		if i >= uint64(len(syms)) {
			return 0, fmt.Errorf("expdb: string ref %d out of range", i)
		}
		return syms[i], nil
	}
	var nodes []*core.Node
	var readNode func(parent *core.Node, depth int) error
	readNode = func(parent *core.Node, depth int) error {
		if depth > 100000 {
			return fmt.Errorf("expdb: tree too deep")
		}
		n, err := readNodeHeader(br, parent, getSym)
		if err != nil {
			return err
		}
		nodes = append(nodes, n)
		if err := readBaseValues(br, n, remaining); err != nil {
			return err
		}
		nc, err := getU(br)
		if err != nil {
			return err
		}
		if int64(nc) > remaining() {
			return fmt.Errorf("expdb: implausible child count %d", nc)
		}
		for i := uint64(0); i < nc; i++ {
			if err := readNode(n, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	nRoots, err := getU(br)
	if err != nil {
		return nil, noEOF(err)
	}
	if int64(nRoots) > remaining() {
		return nil, fmt.Errorf("expdb: implausible root count %d", nRoots)
	}
	for i := uint64(0); i < nRoots; i++ {
		if err := readNode(e.Tree.Root, 0); err != nil {
			return nil, err
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("expdb: trailing bytes in tree section")
	}
	return nodes, nil
}

func readOverridesSection(br *bufio.Reader, root *core.Node, nodes []*core.Node, inclOv, exclOv map[*core.Node][]colVal, remaining func() int64) error {
	nEntries, err := getU(br)
	if err != nil {
		return noEOF(err)
	}
	if int64(nEntries) > remaining() {
		return fmt.Errorf("expdb: implausible override entry count %d", nEntries)
	}
	for i := uint64(0); i < nEntries; i++ {
		idx, err := getU(br)
		if err != nil {
			return noEOF(err)
		}
		if idx > uint64(len(nodes)) {
			return fmt.Errorf("expdb: override node index %d out of range", idx)
		}
		// The index one past the last preorder node addresses the root,
		// which has no entry of its own in the tree section.
		n := root
		if idx < uint64(len(nodes)) {
			n = nodes[idx]
		}
		for _, dest := range []map[*core.Node][]colVal{inclOv, exclOv} {
			ns, err := getU(br)
			if err != nil {
				return noEOF(err)
			}
			if int64(ns) > remaining()/9+1 {
				return fmt.Errorf("expdb: implausible override count %d", ns)
			}
			for j := uint64(0); j < ns; j++ {
				col, err := getU(br)
				if err != nil {
					return noEOF(err)
				}
				v, err := getF(br)
				if err != nil {
					return noEOF(err)
				}
				dest[n] = append(dest[n], colVal{col: int(col), val: v})
			}
		}
	}
	return nil
}

func readProvenanceSection(br *bufio.Reader, remaining func() int64) (*ingest.Report, error) {
	attempted, err := getU(br)
	if err != nil {
		return nil, noEOF(err)
	}
	merged, err := getU(br)
	if err != nil {
		return nil, noEOF(err)
	}
	if attempted > math.MaxInt32 || merged > math.MaxInt32 {
		return nil, fmt.Errorf("expdb: implausible provenance counts %d/%d", merged, attempted)
	}
	nBad, err := getU(br)
	if err != nil {
		return nil, noEOF(err)
	}
	if int64(nBad) > remaining()/5+1 {
		return nil, fmt.Errorf("expdb: implausible quarantine count %d", nBad)
	}
	rep := &ingest.Report{Attempted: int(attempted), Merged: int(merged)}
	readStr := func() (string, error) {
		l, err := getU(br)
		if err != nil {
			return "", noEOF(err)
		}
		if l > 1<<20 || int64(l) > remaining() {
			return "", fmt.Errorf("expdb: implausible string length %d", l)
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	for i := uint64(0); i < nBad; i++ {
		var bad ingest.BadRank
		if bad.Path, err = readStr(); err != nil {
			return nil, err
		}
		rank, err := getU(br)
		if err != nil {
			return nil, noEOF(err)
		}
		if rank > math.MaxInt32 {
			return nil, fmt.Errorf("expdb: implausible quarantined rank %d", rank)
		}
		bad.Rank = int(rank) - 1
		off, err := getU(br)
		if err != nil {
			return nil, noEOF(err)
		}
		bad.Offset = int64(off) - 1
		cls, err := getU(br)
		if err != nil {
			return nil, noEOF(err)
		}
		if cls > uint64(ingest.ClassInternal) {
			return nil, fmt.Errorf("expdb: bad error class %d", cls)
		}
		bad.Class = ingest.Class(cls)
		if bad.Message, err = readStr(); err != nil {
			return nil, err
		}
		rep.Bad = append(rep.Bad, bad)
	}
	return rep, nil
}
