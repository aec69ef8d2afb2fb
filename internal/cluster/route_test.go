package cluster

import (
	"fmt"
	"slices"
	"testing"

	"github.com/pombm/pombm/internal/engine"
)

// TestRoute pins the cut as one rule on the seed-9 tree, whose real leaves
// sit under more than one first digit: after a rotation of every leaf, node
// nd holds exactly the leaves whose first digit ≡ nd (mod n) — the prepare
// filter — and a later Remove of each leaf reaches the node that holds it —
// routeIdx.
func TestRoute(t *testing.T) {
	tree := buildTree(t, 9)
	leaves := tree.NumPoints()
	digits := map[byte]bool{}
	for i := 0; i < leaves; i++ {
		digits[tree.CodeOf(i)[0]] = true
	}
	if len(digits) < 2 {
		t.Fatalf("the tree's leaves sit under %d first digit, want more than one", len(digits))
	}
	pol, err := engine.PolicyByName("greedy")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("nodes=%d", n), func(t *testing.T) {
			nodes := localNodes(n)
			core, err := newFanCore(nodes, tree, pol, "greedy", 1)
			if err != nil {
				t.Fatal(err)
			}
			all := func(yield func(engine.EpochInsert) bool) {
				for i := 0; i < leaves; i++ {
					if !yield(engine.EpochInsert{Code: tree.CodeOf(i), ID: i, Cap: 1}) {
						return
					}
				}
			}
			if err := core.SwapEpochSeq(engine.FirstEpoch+1, tree, 0, all); err != nil {
				t.Fatal(err)
			}
			lens := func() []int {
				out := make([]int, n)
				for nd, node := range nodes {
					res, err := node.Do(OpRequest{Kind: OpStatus})
					if err != nil {
						t.Fatal(err)
					}
					out[nd] = res.Len
				}
				return out
			}
			want := make([]int, n)
			for i := 0; i < leaves; i++ {
				want[int(tree.CodeOf(i)[0])%n]++
			}
			got := lens()
			for nd := range n {
				if got[nd] != want[nd] {
					t.Fatalf("after the rotation node %d holds %d workers, want %d (all: %v, want %v)", nd, got[nd], want[nd], got, want)
				}
			}
			for i := 0; i < leaves; i++ {
				code := tree.CodeOf(i)
				nd := route(code, n)
				if units, found := core.RemoveUnits(code, i); !found || units != 1 {
					t.Fatalf("remove of leaf %d: (%d, %v), want (1, true)", i, units, found)
				}
				got[nd]--
				if now := lens(); !slices.Equal(now, got) {
					t.Fatalf("remove of leaf %d (first digit %d) left %v, want node %d one down: %v", i, code[0], now, nd, got)
				}
			}
		})
	}
}
