package core

import (
	"errors"
	"fmt"
)

// ErrDuplicateSibling reports two children of one scope with the same Key:
// a tree that Child would have fused into one scope.
var ErrDuplicateSibling = errors.New("duplicate sibling key")

// PreorderBuilder appends nodes to a tree in preorder, the order a
// serialized CCT arrives in: each scope declares its child count, then its
// children follow. Building such a stream through Child would
// re-deduplicate a tree that was deduplicated when it was written, paying
// a key lookup, a slice growth and (past childIndexThreshold) a map build
// per scope. The builder instead
//
//   - allocates every node from the tree's arena, so rows follow append
//     order (row i+1 is the i-th appended node);
//   - carves each child list, with capacity exactly its declared count,
//     from shared bounded chunks of child slots;
//   - builds no child index: Child on a built node scans linearly.
//
// Sibling keys are still checked for uniqueness, once each child list is
// full. A builder is single-writer, like the arena it allocates from.
type PreorderBuilder struct {
	t    *Tree
	kids []*Node // unclaimed child slots of the current chunk
	// seen is the scratch set for sibling lists wider than
	// childIndexThreshold, cleared between lists; seenCap is the largest
	// list it has held since it was made, which bounds what clear costs.
	seen    map[Key]struct{}
	seenCap int
}

// Child slot chunks hold kidsChunk pointers; a list wider than
// kidsChunk/8 gets its own exact allocation, so a chunk retired early
// wastes at most an eighth of itself.
const kidsChunk = 4096

// Preorder returns a builder appending to t, whose root must not have
// children yet.
func (t *Tree) Preorder() *PreorderBuilder { return &PreorderBuilder{t: t} }

// Reserve gives n, which has no children yet, room for exactly count
// children, to be filled by Append.
func (b *PreorderBuilder) Reserve(n *Node, count int) {
	if count == 0 {
		n.Children = nil
		return
	}
	if count > len(b.kids) {
		if count > kidsChunk/8 {
			n.Children = make([]*Node, 0, count)
			return
		}
		b.kids = make([]*Node, kidsChunk)
	}
	n.Children = b.kids[:0:count]
	b.kids = b.kids[count:]
}

// Append adds a child with key k to parent, into a slot made by Reserve,
// and returns it. Filling parent's last slot checks its child keys for
// uniqueness; a repeat is an ErrDuplicateSibling.
func (b *PreorderBuilder) Append(parent *Node, k Key) (*Node, error) {
	if len(parent.Children) == cap(parent.Children) {
		return nil, fmt.Errorf("core: %s has no reserved child slot left", parent.Label())
	}
	c := b.t.arena.alloc()
	c.Key = k
	c.Parent = parent
	parent.Children = append(parent.Children, c)
	if len(parent.Children) == cap(parent.Children) {
		if err := b.checkSiblings(parent); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// checkSiblings rejects repeated keys among parent's children: pairwise
// for narrow lists, through the reused scratch set for wide ones.
func (b *PreorderBuilder) checkSiblings(parent *Node) error {
	kids := parent.Children
	dup := func(c *Node) error {
		return fmt.Errorf("core: %w: %s %q under %q", ErrDuplicateSibling, c.Kind, c.Label(), parent.Label())
	}
	if len(kids) <= childIndexThreshold {
		for i := 1; i < len(kids); i++ {
			for _, c := range kids[:i] {
				if c.Key == kids[i].Key {
					return dup(kids[i])
				}
			}
		}
		return nil
	}
	// clear costs the map's high-water size, so a set grown by one huge
	// list is dropped rather than cleared for many far smaller ones.
	if b.seen == nil || b.seenCap > max(4*len(kids), 1024) {
		b.seen = make(map[Key]struct{}, len(kids))
		b.seenCap = 0
	} else {
		clear(b.seen)
	}
	b.seenCap = max(b.seenCap, len(kids))
	for _, c := range kids {
		if _, ok := b.seen[c.Key]; ok {
			return dup(c)
		}
		b.seen[c.Key] = struct{}{}
	}
	return nil
}
