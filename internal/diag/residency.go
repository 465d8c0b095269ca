package diag

import (
	"fmt"
	"io"

	"repro/internal/engine"
)

// ReportResidency writes a snapshot's residency to w, each line prefixed
// by label: the whole database image, then one line per section kind. A
// snapshot that is not a true file mapping — an imported legacy database
// or the nommap read fallback, both heap memory — is reported as not
// mapped, since probing heap pages says nothing about the file.
func ReportResidency(w io.Writer, label string, sn *engine.Snapshot) {
	if !sn.Mapped() {
		fmt.Fprintf(w, "%s: database is not mapped\n", label)
		return
	}
	fmt.Fprintf(w, "%s: %s\n", label, ResidencyString(sn.MappedBytes()))
	spans := sn.SectionSpans()
	kinds := make([]KindSpan, len(spans))
	for i, sp := range spans {
		kinds[i] = KindSpan{Kind: sp.Kind, Data: sp.Data}
	}
	for _, line := range ResidencyByKind(kinds) {
		fmt.Fprintf(w, "%s:   %s\n", label, line)
	}
}

// ResidencyString formats a Residency probe of data for debug output:
// "resident 128 KiB of 24.0 MiB (0.5%)", or "resident n/a of ..." when the
// probe is unavailable on this platform.
func ResidencyString(data []byte) string {
	resident, total, ok := Residency(data)
	if !ok {
		return fmt.Sprintf("resident n/a of %s", byteSize(total))
	}
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(resident) / float64(total)
	}
	return fmt.Sprintf("resident %s of %s (%.1f%%)", byteSize(resident), byteSize(total), pct)
}

// KindSpan labels one byte span for grouped residency reporting; spans
// sharing a Kind are aggregated.
type KindSpan struct {
	Kind string
	Data []byte
}

// ResidencyByKind probes every span and returns one formatted line per
// kind ("column: resident 128 KiB of 24.0 MiB (0.5%)"), in order of each
// kind's first appearance. A kind whose probe fails reports "n/a".
func ResidencyByKind(spans []KindSpan) []string {
	type agg struct {
		resident, total int64
		ok              bool
	}
	var order []string
	byKind := map[string]*agg{}
	for _, sp := range spans {
		a := byKind[sp.Kind]
		if a == nil {
			a = &agg{ok: true}
			byKind[sp.Kind] = a
			order = append(order, sp.Kind)
		}
		resident, total, ok := Residency(sp.Data)
		a.resident += resident
		a.total += total
		a.ok = a.ok && ok
	}
	lines := make([]string, 0, len(order))
	for _, kind := range order {
		a := byKind[kind]
		if !a.ok {
			lines = append(lines, fmt.Sprintf("%s: resident n/a of %s", kind, byteSize(a.total)))
			continue
		}
		pct := 0.0
		if a.total > 0 {
			pct = 100 * float64(a.resident) / float64(a.total)
		}
		lines = append(lines, fmt.Sprintf("%s: resident %s of %s (%.1f%%)",
			kind, byteSize(a.resident), byteSize(a.total), pct))
	}
	return lines
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
