package synth

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/circuits"
	"repro/internal/netlist"
)

// refMatch is the reference matcher: every level returns fresh slices of
// bindings, with the same recursion order as match.
func refMatch(g *subjGraph, p *pnode, s int, root bool, bind []int) [][]int {
	n := &g.nodes[s]
	if p.kind == pLeaf {
		return [][]int{append(append([]int(nil), bind...), s)}
	}
	if (!root && n.fanout > 1) || g.isLeaf(s) {
		return nil
	}
	var results [][]int
	switch p.kind {
	case pInv:
		if n.inv {
			results = refMatch(g, p.kids[0], n.in[0], false, bind)
		}
	case pNand:
		if n.inv {
			return nil
		}
		for _, ord := range [][2]int{{0, 1}, {1, 0}} {
			for _, lb := range refMatch(g, p.kids[0], n.in[ord[0]], false, bind) {
				results = append(results, refMatch(g, p.kids[1], n.in[ord[1]], false, lb)...)
			}
		}
	}
	return results
}

// refMatches dedupes refMatch's bindings by their printed form, keeping
// first occurrences.
func refMatches(g *subjGraph, p pattern, s int) [][]int {
	seen := map[string]bool{}
	var out [][]int
	for _, b := range refMatch(g, p.tree, s, true, nil) {
		if key := fmt.Sprint(b); !seen[key] {
			seen[key] = true
			out = append(out, b)
		}
	}
	return out
}

// TestMatchesEqualReference: the in-place matcher yields exactly the
// reference matcher's bindings, in the same order, for every pattern at
// every node of the subject graphs of adders, multipliers, an ALU and
// random logic. Map keeps the first cheapest binding, so order matters.
func TestMatchesEqualReference(t *testing.T) {
	lib := cell.RichASIC()
	var designs []*netlist.Netlist
	if ad, err := circuits.CarryLookahead(lib, 16); err == nil {
		designs = append(designs, ad.N)
	} else {
		t.Fatal(err)
	}
	if m, err := circuits.WallaceMultiplier(lib, 6); err == nil {
		designs = append(designs, m.N)
	} else {
		t.Fatal(err)
	}
	if a, err := circuits.NewALU(lib, 8); err == nil {
		designs = append(designs, a.N)
	} else {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		r, err := circuits.RandomLogic(lib, 10, 150, seed)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, r)
	}
	var buf []binding
	total := 0
	for _, d := range designs {
		g, err := buildSubject(d)
		if err != nil {
			t.Fatal(err)
		}
		for id := range g.nodes {
			for _, p := range patternSet() {
				want := refMatches(g, p, id)
				buf = g.matches(p, id, buf)
				if len(buf) != len(want) {
					t.Fatalf("%s node %d %v: %d bindings, reference %d", d.Name, id, p.f, len(buf), len(want))
				}
				for i := range want {
					if !slices.Equal(buf[i].leaves(), want[i]) {
						t.Fatalf("%s node %d %v: binding %d is %v, reference %v", d.Name, id, p.f, i, buf[i].leaves(), want[i])
					}
				}
				total += len(want)
			}
		}
	}
	if total == 0 {
		t.Fatal("no bindings compared")
	}
}
