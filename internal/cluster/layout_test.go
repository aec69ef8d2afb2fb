package cluster

import (
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// TestSubShardRouting pins the cut's rounding and its sub-sharded
// partition: shard d0 + degree·t holds exactly the codes with first digit
// d0 and second digit ≡ t mod sub, and every such shard routes with its
// first digit's group, so every worker sharing a task's first digit is on
// the task's node.
func TestSubShardRouting(t *testing.T) {
	grid, err := geo.NewGrid(workload.SyntheticRegion, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(grid.Points(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() < 2 {
		t.Skip("tree too shallow to sub-shard")
	}
	d := tree.Degree()
	for _, tc := range []struct{ asked, want int }{
		{0, DefaultShards}, {d + 1, d}, {3 * d, 3 * d}, {10_000, d * d},
	} {
		if got := LayoutFor(tree, tc.asked).Shards; got != tc.want {
			t.Errorf("LayoutFor(tree, %d).Shards = %d, want %d", tc.asked, got, tc.want)
		}
	}
	l := LayoutFor(tree, 3*d)
	if l.Sub != 3 {
		t.Fatalf("sub = %d, want 3", l.Sub)
	}
	src := rng.New(17)
	for i := 0; i < 500; i++ {
		code := make([]byte, tree.Depth())
		for j := range code {
			code[j] = byte(src.Intn(d))
		}
		si := l.ShardIdx(hst.Code(code))
		if si%d != int(code[0]) || si/d != int(code[1])%l.Sub {
			t.Fatalf("code %v routed to shard %d: want first digit %d, second-digit group %d",
				code, si, code[0], int(code[1])%l.Sub)
		}
		if g := l.GroupOf(hst.Code(code)); g != int(code[0]) {
			t.Fatalf("code %v in group %d, want its first digit's %d", code, g, code[0])
		}
	}
}
