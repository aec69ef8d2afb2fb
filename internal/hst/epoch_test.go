package hst

import (
	"fmt"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
)

var epochRegion = geo.NewRect(geo.Pt(0, 0), geo.Pt(200, 200))

func sameCodes(a, b *Tree) bool {
	if a.Depth() != b.Depth() {
		return false
	}
	for i := 0; i < a.NumPoints(); i++ {
		if a.CodeOf(i) != b.CodeOf(i) {
			return false
		}
	}
	return true
}

func TestBuildEpochDeterministicAndReseedable(t *testing.T) {
	points := gridPoints(epochRegion, 8, 8)
	build := func(root uint64, next int64, reseed uint64) *Tree {
		t.Helper()
		tree, err := BuildEpoch(points, root, next, reseed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	// Same root seed, same epoch → identical construction (codes match),
	// and it is the seeded Build of the derived seed.
	s1 := build(42, 2, 0)
	if !sameCodes(s1, build(42, 2, 0)) {
		t.Fatal("derived preparation not deterministic")
	}
	derived, err := Build(points, rng.New(rng.New(42).DeriveN("epoch-tree", 2).Seed()))
	if err != nil {
		t.Fatal(err)
	}
	if !sameCodes(s1, derived) {
		t.Fatal("the derived tree is not Build of the (root, epoch) seed")
	}
	// Another epoch, or an explicit reseed, changes the construction; the
	// reseed does not depend on the root or the epoch.
	if sameCodes(s1, build(42, 3, 0)) {
		t.Error("the next epoch produced the identical tree")
	}
	if sameCodes(s1, build(42, 2, 999)) {
		t.Error("explicit reseed produced the identical tree")
	}
	if !sameCodes(build(42, 2, 999), build(7, 5, 999)) {
		t.Error("an explicit reseed depends on the root seed or the epoch")
	}
}

func TestRefitUsesObservedHistory(t *testing.T) {
	points := gridPoints(epochRegion, 8, 8)
	// A heavily skewed histogram: every report at point 17.
	hist := make([]int, len(points))
	hist[17] = 50
	tree, err := BuildEpoch(points, 1, 2, 0, hist)
	if err != nil {
		t.Fatal(err)
	}
	// The hot point must be the first carving pivot.
	if perm := tree.Perm(); len(perm) == 0 || perm[0] != 17 {
		t.Fatalf("refit perm starts %v, want point 17 first", perm[:3])
	}
	// An empty histogram orders by index only.
	if tree, err = BuildEpoch(points, 1, 2, 0, make([]int, len(points))); err != nil {
		t.Fatal(err)
	}
	if perm := tree.Perm(); perm[0] != 0 {
		t.Fatalf("refit perm from no reports starts %d, want 0", perm[0])
	}
	// A histogram of another point set is refused.
	if _, err := BuildEpoch(points, 1, 2, 0, hist[1:]); err == nil {
		t.Fatal("a histogram one point short was accepted")
	}
}

// TestRefitOrdersTiesByPointIndex pins the whole carving order under refit,
// ties included: counts descending, equal counts — the unobserved points
// among them — by ascending point index. The caller's histogram is read
// once: a later change to it does not reach a tree already built.
func TestRefitOrdersTiesByPointIndex(t *testing.T) {
	points := gridPoints(epochRegion, 4, 4)
	hist := make([]int, len(points))
	for point, reports := range map[int]int{9: 3, 2: 3, 14: 5, 6: 1, 11: 1, 0: 1} {
		hist[point] = reports
	}
	tree, err := BuildEpoch(points, 1, 2, 0, hist)
	if err != nil {
		t.Fatal(err)
	}
	hist[15] = 9
	want := []int{14, 2, 9, 0, 6, 11, 1, 3, 4, 5, 7, 8, 10, 12, 13, 15}
	if got := tree.Perm(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("refit carving order %v, want %v", got, want)
	}
}
