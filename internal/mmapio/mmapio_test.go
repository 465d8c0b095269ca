package mmapio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

func writeFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "file.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Map returns exactly the file's bytes on a page-aligned base — mapped on
// unix, a read into an aligned heap buffer under nommap.
func TestMapContentsAndAlignment(t *testing.T) {
	// Span several pages with a non-multiple-of-page tail.
	want := make([]byte, 3*os.Getpagesize()+123)
	for i := range want {
		want[i] = byte(i * 7)
	}
	r, err := Map(writeFile(t, want))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.Bytes()
	if !bytes.Equal(got, want) || r.Len() != len(want) {
		t.Fatalf("mapped %d bytes, want the file's %d", r.Len(), len(want))
	}
	if base := uintptr(unsafe.Pointer(&got[0])); base%uintptr(os.Getpagesize()) != 0 {
		t.Fatalf("base %#x is not page-aligned", base)
	}
	if r.Mapped() != wantMapped {
		t.Fatalf("Mapped() = %v, want %v for this build", r.Mapped(), wantMapped)
	}
}

func TestMapEmptyFile(t *testing.T) {
	r, err := Map(writeFile(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 || len(r.Bytes()) != 0 {
		t.Fatalf("empty file mapped to %d bytes", r.Len())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMapMissingFile(t *testing.T) {
	if _, err := Map(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("mapping a missing file succeeded")
	}
}

func TestCloseTwice(t *testing.T) {
	r, err := Map(writeFile(t, []byte("CPDB3 payload")))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if r.Len() != 0 || r.Bytes() != nil {
		t.Fatal("closed region still exposes bytes")
	}
}
