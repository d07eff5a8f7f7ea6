package synth

import (
	"slices"

	"repro/internal/cell"
)

// pnode is a node of a pattern tree over the INV/NAND2 subject basis.
type pnode struct {
	kind pkind
	kids []*pnode
}

type pkind int

const (
	pLeaf pkind = iota
	pInv
	pNand
)

func leafP() *pnode        { return &pnode{kind: pLeaf} }
func invP(a *pnode) *pnode { return &pnode{kind: pInv, kids: []*pnode{a}} }
func nandP(a, b *pnode) *pnode {
	return &pnode{kind: pNand, kids: []*pnode{a, b}}
}

// pattern ties a library function to its subject-graph shape. Leaves are
// the cell's input pins, in order.
type pattern struct {
	f    cell.Func
	tree *pnode
	// stages is the pattern's internal stage count, used as a
	// load-independent depth estimate during covering.
	stages int
}

// patternSet builds the matchable patterns. XOR-class cells are excluded:
// their subject decomposition is a DAG (the shared NAND), which tree
// covering cannot represent; XOR cells enter designs through direct
// generation instead.
func patternSet() []pattern {
	and2 := func(a, b *pnode) *pnode { return invP(nandP(a, b)) }
	or2 := func(a, b *pnode) *pnode { return nandP(invP(a), invP(b)) }

	return []pattern{
		{f: cell.FuncInv, tree: invP(leafP()), stages: 1},
		{f: cell.FuncNand2, tree: nandP(leafP(), leafP()), stages: 1},
		{f: cell.FuncAnd2, tree: and2(leafP(), leafP()), stages: 2},
		{f: cell.FuncOr2, tree: or2(leafP(), leafP()), stages: 2},
		{f: cell.FuncNor2, tree: invP(or2(leafP(), leafP())), stages: 2},
		{f: cell.FuncNand3, tree: nandP(and2(leafP(), leafP()), leafP()), stages: 2},
		{f: cell.FuncAnd3, tree: invP(nandP(and2(leafP(), leafP()), leafP())), stages: 2},
		{f: cell.FuncNand4, tree: nandP(and2(leafP(), leafP()), and2(leafP(), leafP())), stages: 2},
		{f: cell.FuncAnd4, tree: invP(nandP(and2(leafP(), leafP()), and2(leafP(), leafP()))), stages: 2},
		{f: cell.FuncOr3, tree: nandP(invP(or2(leafP(), leafP())), invP(leafP())), stages: 2},
		{f: cell.FuncNor3, tree: invP(nandP(invP(or2(leafP(), leafP())), invP(leafP()))), stages: 2},
		{f: cell.FuncOr4, tree: nandP(invP(or2(leafP(), leafP())), invP(or2(leafP(), leafP()))), stages: 2},
		{f: cell.FuncNor4, tree: invP(nandP(invP(or2(leafP(), leafP())), invP(or2(leafP(), leafP())))), stages: 2},
		{f: cell.FuncAoi21, tree: invP(nandP(nandP(leafP(), leafP()), invP(leafP()))), stages: 1},
		{f: cell.FuncOai21, tree: nandP(or2(leafP(), leafP()), leafP()), stages: 1},
		{f: cell.FuncAoi22, tree: invP(nandP(nandP(leafP(), leafP()), nandP(leafP(), leafP()))), stages: 1},
		{f: cell.FuncOai22, tree: nandP(or2(leafP(), leafP()), or2(leafP(), leafP())), stages: 1},
	}
}

// binding is one match's subject nodes for the pattern leaves, in pin
// order. Cells have at most four inputs, so patterns at most four leaves.
type binding struct {
	n    int
	leaf [4]int
}

// leaves returns the bound subject nodes.
func (b *binding) leaves() []int { return b.leaf[:b.n] }

// match attempts to overlay the pattern tree rooted at p onto the subject
// graph at node s. A pattern leaf matches any node and records a binding.
// Internal pattern nodes must match node kinds, and a subject node covered
// by the interior of a pattern must not be multi-fanout (its value would
// be needed elsewhere) — except at the match root itself.
//
// Each successful alternative extends bind with its leaf bindings (in pin
// order) and is appended to out; NAND commutativity is explored both ways.
func (g *subjGraph) match(p *pnode, s int, root bool, bind binding, out []binding) []binding {
	n := &g.nodes[s]
	if p.kind == pLeaf {
		bind.leaf[bind.n] = s
		bind.n++
		return append(out, bind)
	}
	if (!root && n.fanout > 1) || g.isLeaf(s) {
		return out
	}
	switch p.kind {
	case pInv:
		if n.inv {
			out = g.match(p.kids[0], n.in[0], false, bind, out)
		}
	case pNand:
		if n.inv {
			return out
		}
		// Try both input orders. The left kid's partial bindings go
		// to out[start:mid]; each is extended by the right kid after
		// them, and the finished bindings then replace the partials.
		for _, ord := range [2][2]int{{0, 1}, {1, 0}} {
			start := len(out)
			out = g.match(p.kids[0], n.in[ord[0]], false, bind, out)
			mid := len(out)
			for i := start; i < mid; i++ {
				out = g.match(p.kids[1], n.in[ord[1]], false, out[i], out)
			}
			out = out[:start+copy(out[start:], out[mid:])]
		}
	}
	return out
}

// matches returns all leaf bindings for pattern p rooted at subject node
// s, in buf's storage.
func (g *subjGraph) matches(p pattern, s int, buf []binding) []binding {
	r := g.match(p.tree, s, true, binding{}, buf[:0])
	// Deduplicate identical bindings (commutativity can produce repeats
	// when both orders bind the same way), keeping first occurrences in
	// order. A node has a handful of bindings, so a pairwise compare
	// beats hashing them.
	out := r[:0]
	for _, b := range r {
		if !slices.Contains(out, b) {
			out = append(out, b)
		}
	}
	return out
}
