package core

import "repro/internal/metric"

// The Flat View (Section III-C) correlates costs to the program's static
// structure: load module → file → procedure → loop/inlined code →
// statement, with dynamic call-site rows nested in their static context.
//
// Aggregation rules, validated against Figure 2c:
//
//   - Inclusive: a CCT node contributes its inclusive cost to a flat scope
//     s exactly when no CCT ancestor also maps into s's flat subtree (the
//     "exposed with respect to s" generalization of Section IV-B). That
//     yields gx = 9 (g1 + g3, skipping the nested g2) and file2 = 9 (g1 +
//     g3, skipping h which is nested under g's instances).
//
//   - Exclusive: procedure rows sum the *frame-rule* exclusive of exposed
//     instances (gx = 4); loop/alien/statement rows sum their instances'
//     exclusive (sample sets are disjoint, no exposure needed); file and
//     module rows sum their children (file2 = 8); dynamic call-site rows
//     report the callee's *static-rule* exclusive — direct child statements
//     only — which is why hy shows 0 (h's samples are nested in loops)
//     while fy shows 1.

// FlatView is the static view.
type FlatView struct {
	Reg *metric.Registry
	// Roots are the load modules.
	Roots []*Node
}

// BuildFlatView computes the Flat View of a tree in a single walk. Like
// BuildCallersView it only reads the tree, so concurrent builds are safe.
func BuildFlatView(t *Tree) *FlatView {
	t.EnsureComputed()
	v := &FlatView{Reg: t.Reg}
	// The view is built by this one goroutine; a private arena with its own
	// metric store packs its scopes into slabs like the CCT's, keeping the
	// no-cross-tree-aliasing invariant.
	arena := &nodeArena{store: metric.NewStore()}
	root := arena.alloc()
	root.Key = Key{Kind: KindRoot}

	// active counts, per flat scope, how many CCT ancestors on the
	// current walk path map into that scope's flat subtree.
	active := map[*Node]int{}

	// flatHome materializes the (LM, file, proc) chain for a frame and
	// returns all three, outermost first.
	flatHome := func(fr *Node) []*Node {
		lm := root.Child(Key{Kind: KindLM, Name: fr.Mod}, true)
		file := lm.Child(Key{Kind: KindFile, Name: fr.File}, true)
		file.NoSource = fr.File == 0
		proc := file.Child(Key{Kind: KindProc, Name: fr.Name, File: fr.File, Line: fr.Line}, true)
		proc.NoSource = fr.NoSource
		return []*Node{lm, file, proc}
	}

	// walk carries the flat path of the current CCT node's *context*:
	// for children of a frame that is the frame's home chain; for
	// children of loops/aliens it extends with the mapped scope.
	var walk func(n *Node, ctxPath []*Node)
	walk = func(n *Node, ctxPath []*Node) {
		var touched []*Node
		childCtx := ctxPath

		if n.Kind != KindRoot {
			var fp []*Node
			switch n.Kind {
			case KindFrame:
				fp = flatHome(n)
			case KindLoop, KindAlien, KindStmt:
				parent := ctxPath[len(ctxPath)-1]
				var k Key
				switch n.Kind {
				case KindLoop:
					k = Key{Kind: KindLoop, File: n.File, Line: n.Line, ID: n.ID}
				case KindAlien:
					k = Key{Kind: KindAlien, Name: n.Name, File: n.File, Line: n.Line, ID: n.ID}
				case KindStmt:
					k = Key{Kind: KindStmt, File: n.File, Line: n.Line}
				}
				c := parent.Child(k, true)
				c.NoSource = n.NoSource
				if c.CallLine == 0 {
					c.CallLine = n.CallLine
					c.CallFile = n.CallFile
				}
				fp = append(append([]*Node(nil), ctxPath...), c)
			default:
				fp = ctxPath
			}

			for _, s := range fp {
				if active[s] == 0 {
					s.Incl.AddView(&n.Incl)
				}
			}
			self := fp[len(fp)-1]
			switch n.Kind {
			case KindFrame:
				if active[self] == 0 {
					self.Excl.AddView(&n.Excl)
				}
			case KindLoop, KindAlien, KindStmt:
				self.Excl.AddView(&n.Excl)
			}
			touched = append(touched, fp...)

			// Dynamic call-site row in the caller's static context.
			if n.Kind == KindFrame && len(ctxPath) > 0 {
				ctx := ctxPath[len(ctxPath)-1]
				cs := ctx.Child(Key{Kind: KindCallSite, Name: n.Name, File: n.CallFile, Line: n.CallLine, ID: n.ID}, true)
				cs.NoSource = n.NoSource
				if active[cs] == 0 {
					cs.Incl.AddView(&n.Incl)
					addStaticExcl(&cs.Excl, n)
				}
				touched = append(touched, cs)
			}

			for _, s := range touched {
				active[s]++
			}
			childCtx = fp
		}

		for _, c := range n.Children {
			walk(c, childCtx)
		}

		for _, s := range touched {
			active[s]--
		}
	}
	walk(t.Root, nil)

	// Containers (files, modules) report the sum of their children's
	// exclusive costs (file2 = g's 4 + h's 4 = 8 in Figure 2c).
	var fixContainers func(s *Node)
	fixContainers = func(s *Node) {
		for _, c := range s.Children {
			fixContainers(c)
		}
		if s.Kind == KindFile || s.Kind == KindLM {
			s.Excl.Reset()
			for _, c := range s.Children {
				s.Excl.AddView(&c.Excl)
			}
		}
	}
	fixContainers(root)

	v.Roots = root.Children
	return v
}
