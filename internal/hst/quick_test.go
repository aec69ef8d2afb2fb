package hst

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/pombm/pombm/internal/rng"
)

// quickTree is a fixed random tree reused across the property tests below.
func quickTree(t *testing.T) *Tree {
	t.Helper()
	src := rng.New(20240611)
	pts := randomPoints(src.Derive("pts"), 120, 250)
	tr, err := Build(pts, src.Derive("tree"))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// randomLeaf maps an arbitrary uint64 onto a leaf of the complete tree
// (real or fake), giving testing/quick a uniform-ish generator.
func randomLeaf(tr *Tree, seed uint64) Code {
	s := rng.New(seed)
	buf := make([]byte, tr.Depth())
	for i := range buf {
		buf[i] = byte(s.Intn(tr.Degree()))
	}
	return Code(buf)
}

func TestQuickTreeDistanceIsMetric(t *testing.T) {
	tr := quickTree(t)
	identity := func(x uint64) bool {
		a := randomLeaf(tr, x)
		return tr.Dist(a, a) == 0
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("identity: %v", err)
	}
	symmetry := func(x, y uint64) bool {
		a, b := randomLeaf(tr, x), randomLeaf(tr, y)
		return tr.Dist(a, b) == tr.Dist(b, a)
	}
	if err := quick.Check(symmetry, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	positivity := func(x, y uint64) bool {
		a, b := randomLeaf(tr, x), randomLeaf(tr, y)
		if a == b {
			return tr.Dist(a, b) == 0
		}
		return tr.Dist(a, b) >= 4 // the minimum non-zero leaf distance
	}
	if err := quick.Check(positivity, nil); err != nil {
		t.Errorf("positivity: %v", err)
	}
}

// TestQuickTreeDistanceIsUltrametric checks the strong triangle inequality
// dT(a, c) ≤ max(dT(a, b), dT(b, c)) that characterises leaf distances on
// trees with level-uniform edge lengths — the property the mechanism's
// Geo-I proof implicitly leans on in Case 1 of Theorem 1.
func TestQuickTreeDistanceIsUltrametric(t *testing.T) {
	tr := quickTree(t)
	f := func(x, y, z uint64) bool {
		a, b, c := randomLeaf(tr, x), randomLeaf(tr, y), randomLeaf(tr, z)
		return tr.Dist(a, c) <= math.Max(tr.Dist(a, b), tr.Dist(b, c))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickLCALevelConsistentWithAncestors(t *testing.T) {
	tr := quickTree(t)
	f := func(x, y uint64) bool {
		a, b := randomLeaf(tr, x), randomLeaf(tr, y)
		lvl := tr.LCALevel(a, b)
		// The ancestor of a leaf at a level is its code prefix of length
		// D−level. The ancestors at the LCA level must coincide; one level
		// below (if distinct leaves) they must differ.
		cut := tr.Depth() - lvl
		if a[:cut] != b[:cut] {
			return false
		}
		if lvl == 0 {
			return a == b
		}
		return a[:cut+1] != b[:cut+1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickSiblingSetDistance(t *testing.T) {
	// Every leaf generated as a level-i sibling of x must be at exactly
	// LevelDist(i) from x — the geometric fact Alg. 2's weights rely on.
	tr := quickTree(t)
	f := func(x uint64, rawLvl uint8) bool {
		a := randomLeaf(tr, x)
		lvl := 1 + int(rawLvl)%tr.Depth()
		s := rng.New(x ^ 0x9e37)
		buf := []byte(a)
		d := tr.Depth()
		own := int(buf[d-lvl])
		digit := s.Intn(tr.Degree() - 1)
		if digit >= own {
			digit++
		}
		buf[d-lvl] = byte(digit)
		for j := d - lvl + 1; j < d; j++ {
			buf[j] = byte(s.Intn(tr.Degree()))
		}
		b := Code(buf)
		return tr.LCALevel(a, b) == lvl && tr.Dist(a, b) == LevelDist(lvl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
