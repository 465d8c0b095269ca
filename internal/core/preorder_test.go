package core

import (
	"errors"
	"testing"
)

// rebuild appends src's scopes to a fresh tree through a PreorderBuilder,
// the way a decoder replays a serialized preorder stream.
func rebuild(t *testing.T, src *Tree) *Tree {
	t.Helper()
	dst := NewTree(src.Program, src.Reg)
	b := dst.Preorder()
	var copyKids func(from, to *Node)
	copyKids = func(from, to *Node) {
		b.Reserve(to, len(from.Children))
		for _, c := range from.Children {
			n, err := b.Append(to, c.Key)
			if err != nil {
				t.Fatal(err)
			}
			copyKids(c, n)
		}
	}
	copyKids(src.Root, dst.Root)
	return dst
}

func TestPreorderBuilderMatchesChild(t *testing.T) {
	src := NewTree("t", nil)
	for i := 0; i < 3*childIndexThreshold; i++ {
		fr := src.AddPath(Key{Kind: KindFrame, Name: Sym("main")}, Key{Kind: KindFrame, Name: Sym("f"), Line: i})
		fr.Child(Key{Kind: KindStmt, File: Sym("f.c"), Line: i}, true)
	}
	dst := rebuild(t, src)

	var want, got []*Node
	Walk(src.Root, func(n *Node) bool { want = append(want, n); return true })
	Walk(dst.Root, func(n *Node) bool { got = append(got, n); return true })
	if len(got) != len(want) {
		t.Fatalf("rebuilt %d scopes, want %d", len(got), len(want))
	}
	for i, n := range got {
		if n.Key != want[i].Key || int(n.Base.Row()) != i {
			t.Fatalf("preorder scope %d: key %v row %d, want key %v row %d", i, n.Key, n.Base.Row(), want[i].Key, i)
		}
		if n.index != nil || len(n.Children) != cap(n.Children) {
			t.Fatalf("%s: index %v, %d children in capacity %d", n.Label(), n.index != nil, len(n.Children), cap(n.Children))
		}
	}

	// Without an index, Child scans — and still finds every scope.
	main := dst.Root.Children[0]
	for _, c := range main.Children {
		if main.Child(c.Key, false) != c {
			t.Fatalf("Child lost %s", c.Label())
		}
	}
	// A later Child create outgrows the exact capacity instead of writing
	// into a neighbour's slots.
	next := dst.Root.Children[0].Children[1]
	main.Child(Key{Kind: KindFrame, Name: Sym("late")}, true)
	if main.Children[1] != next || next.Children[0].Parent != next {
		t.Fatal("appending to a built scope disturbed its siblings")
	}
}

func TestPreorderBuilderRejectsDuplicateSiblings(t *testing.T) {
	for _, width := range []int{2, childIndexThreshold, childIndexThreshold + 1, 3000} {
		tr := NewTree("t", nil)
		b := tr.Preorder()
		// A wide list first leaves the scratch set large for the next.
		b.Reserve(tr.Root, 2)
		wide, err := b.Append(tr.Root, Key{Kind: KindFrame, Name: Sym("wide")})
		if err != nil {
			t.Fatal(err)
		}
		b.Reserve(wide, 5000)
		for i := 0; i < 5000; i++ {
			if _, err := b.Append(wide, Key{Kind: KindStmt, Line: i}); err != nil {
				t.Fatal(err)
			}
		}
		p, err := b.Append(tr.Root, Key{Kind: KindFrame, Name: Sym("p")})
		if err != nil {
			t.Fatal(err)
		}
		b.Reserve(p, width)
		for i := 0; i < width; i++ {
			line := i
			if i == width-1 {
				line = 0
			}
			_, err = b.Append(p, Key{Kind: KindStmt, Line: line})
		}
		if !errors.Is(err, ErrDuplicateSibling) {
			t.Fatalf("width %d: repeated key gave %v", width, err)
		}
		if _, err := b.Append(p, Key{Kind: KindStmt, Line: -1}); err == nil {
			t.Fatalf("width %d: append past the reservation accepted", width)
		}
	}
}
