package privacy

import (
	"fmt"
	"math"
	"runtime"
	"unsafe"

	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// HSTMechanism is the paper's tree-based privacy mechanism M: a leaf x of
// the complete HST is reported as leaf z with probability
//
//	M(x)(z) = wt_lvl(x,z) / WT,   wt_i = e^{−ε·(2^{i+2}−4)},  wt_0 = 1,
//
// i.e. an exponential mechanism in the tree metric with an x-independent
// normaliser, which makes it ε-Geo-Indistinguishable w.r.t. tree distance
// (Theorem 1).
//
// Three samplers are provided:
//
//   - ObfuscateEnumerate — the literal Alg. 2: materialise the probability
//     of every leaf of the complete tree and sample. O(c^D); refuses trees
//     with more than EnumerateLimit leaves. Kept for validation/ablation.
//   - ObfuscateDirect — samples the LCA level from the closed-form level
//     distribution, then a uniform leaf within the level's sibling set.
//   - ObfuscateWalk — the random-walk sampler of Alg. 3; O(D).
//
// All three induce exactly the same distribution (Theorem 2); the tests
// verify this analytically, not statistically.
type HSTMechanism struct {
	tree *hst.Tree
	eps  float64

	wt        []float64 // wt[i], i = 0..D
	levelProb []float64 // P[lvl(x,z)=i] = |L_i|·wt_i / WT
	tw        []float64 // tw[k] = Σ_{i≥k} |L_i|·wt_i (tw[0] = WT)
	pu        []float64 // pu[i] = tw[i+1]/tw[i], walk-up probability at level i
	wtTotal   float64
}

// NewHSTMechanism builds the mechanism for a published tree and budget ε.
func NewHSTMechanism(tree *hst.Tree, eps float64) (*HSTMechanism, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("%w (got %v)", ErrBadEpsilon, eps)
	}
	d := tree.Depth()
	m := &HSTMechanism{
		tree:      tree,
		eps:       eps,
		wt:        make([]float64, d+1),
		levelProb: make([]float64, d+1),
		tw:        make([]float64, d+2),
		pu:        make([]float64, d+1),
	}
	for i := 0; i <= d; i++ {
		m.wt[i] = math.Exp(-eps * hst.LevelDist(i))
	}
	// tw[k] = Σ_{i≥k} |L_i|·wt_i, built from the top down. tw[D+1] = 0.
	for i := d; i >= 0; i-- {
		m.tw[i] = m.tw[i+1] + tree.SiblingSetSize(i)*m.wt[i]
	}
	m.wtTotal = m.tw[0]
	for i := 0; i <= d; i++ {
		m.levelProb[i] = tree.SiblingSetSize(i) * m.wt[i] / m.wtTotal
		if m.tw[i] > 0 {
			m.pu[i] = m.tw[i+1] / m.tw[i]
		}
	}
	return m, nil
}

// Epsilon returns the privacy budget.
func (m *HSTMechanism) Epsilon() float64 { return m.eps }

// Tree returns the tree the mechanism operates on.
func (m *HSTMechanism) Tree() *hst.Tree { return m.tree }

// Weight returns wt_i, the unnormalised probability of each leaf whose LCA
// with the input is at level i.
func (m *HSTMechanism) Weight(i int) float64 { return m.wt[i] }

// TotalWeight returns WT = Σ_i |L_i|·wt_i.
func (m *HSTMechanism) TotalWeight() float64 { return m.wtTotal }

// LevelProbs returns, for each level i, the probability that the obfuscated
// leaf's LCA with the input is at level i. The slice is shared; do not
// modify.
func (m *HSTMechanism) LevelProbs() []float64 { return m.levelProb }

// WalkUpProb returns pu_i, the probability the random walk continues upward
// from a node at level i.
func (m *HSTMechanism) WalkUpProb(i int) float64 { return m.pu[i] }

// LeafProb returns M(x)(z) exactly.
func (m *HSTMechanism) LeafProb(x, z hst.Code) float64 {
	return m.wt[m.tree.LCALevel(x, z)] / m.wtTotal
}

// LogLeafProb returns ln M(x)(z) computed without underflow: the weights
// e^{−ε·(2^{i+2}−4)} round to zero in float64 on deep trees, but their
// logarithms are exact. The Geo-I verifier works in this domain.
func (m *HSTMechanism) LogLeafProb(x, z hst.Code) float64 {
	lvl := m.tree.LCALevel(x, z)
	return -m.eps*hst.LevelDist(lvl) - math.Log(m.wtTotal)
}

// Obfuscate reports an obfuscated leaf for x using the random-walk sampler.
func (m *HSTMechanism) Obfuscate(x hst.Code, src *rng.Source) hst.Code {
	return m.ObfuscateWalk(x, src)
}

// ObfuscateDirect samples the LCA level from the closed-form level
// distribution and then a uniform leaf of that sibling set.
func (m *HSTMechanism) ObfuscateDirect(x hst.Code, src *rng.Source) hst.Code {
	lvl := src.WeightedIndex(m.levelProb)
	if lvl <= 0 {
		return x
	}
	return m.sampleSibling(x, lvl, src)
}

// ObfuscateWalk is Alg. 3: walk upward from x, at each level i continuing
// with probability pu_i; on turning downward at level i, pick uniformly
// among the c−1 non-ancestor children and then descend uniformly to a leaf.
//
// ObfuscateWalk performs at most one allocation — the final Code
// materialisation — and none at all when the walk stops at level 0. For a
// wave of agents, ObfuscateEach amortises even that allocation across the
// wave.
func (m *HSTMechanism) ObfuscateWalk(x hst.Code, src *rng.Source) hst.Code {
	lvl := m.walkLevel(src)
	if lvl == 0 {
		return x
	}
	return m.sampleSibling(x, lvl, src)
}

// walkLevel draws the stopping level of the Alg. 3 random walk.
func (m *HSTMechanism) walkLevel(src *rng.Source) int {
	d := m.tree.Depth()
	lvl := 0
	// pu[d] is 0 by construction (tw[d+1] = 0), so lvl ≤ d; reaching d
	// through the loop bound alone cannot happen with consistent weights,
	// but guard anyway: turning down at the root is well defined.
	for lvl < d && src.Float64() < m.pu[lvl] {
		lvl++
	}
	return lvl
}

// walkStackDepth is the deepest tree whose walk buffer fits on the stack;
// realistic HSTs are far shallower (D ≈ 10 for a 64×64 grid).
const walkStackDepth = 64

// A wave of at least obfuscateFanOut items obfuscates on two goroutines, a
// helper filling the true leaves obfuscateChunk items at a time ahead of the
// caller's draws.
const (
	obfuscateChunk  = 4096
	obfuscateFanOut = 2 * obfuscateChunk
)

// ObfuscateEach obfuscates the true leaves leaf(0), …, leaf(n−1) in one
// pass, drawing exactly the random stream that calling ObfuscateWalk on each
// in order would draw — batch and loop are interchangeable, result for
// result. Each true leaf is copied into its place in one n·D-byte slab, and
// a walk that leaves home overwrites the digits below its level there. The
// returned codes view the slab, which is never written again. A wave costs
// two allocations whatever its size, the slab and the result, and two more
// (a helper goroutine's closure and channel) from obfuscateFanOut items at
// GOMAXPROCS ≥ 2, where the helper copies the true leaves in and writes the
// code headers while src is read on the caller's goroutine in item order.
// So leaf may run on another goroutine, concurrently with the draws: it
// must only read what nothing writes during the call, and must not panic.
func (m *HSTMechanism) ObfuscateEach(n int, leaf func(i int) hst.Code, src *rng.Source) []hst.Code {
	d := m.tree.Depth()
	slab := make([]byte, n*d)
	all := unsafe.String(unsafe.SliceData(slab), len(slab))
	codes := make([]hst.Code, n)
	if n < obfuscateFanOut || runtime.GOMAXPROCS(0) == 1 {
		for i := range n {
			copy(slab[i*d:], leaf(i))
			if lvl := m.walkLevel(src); lvl > 0 {
				m.sampleSiblingInto(slab[i*d:], lvl, src)
			}
			codes[i] = hst.Code(all[i*d : (i+1)*d])
		}
		return codes
	}
	filled := make(chan int, (n+obfuscateChunk-1)/obfuscateChunk)
	go func() {
		for lo := 0; lo < n; lo += obfuscateChunk {
			hi := min(lo+obfuscateChunk, n)
			for i := lo; i < hi; i++ {
				copy(slab[i*d:], leaf(i))
			}
			filled <- hi
		}
		for i := range codes { // the slab's address only, never its bytes
			codes[i] = hst.Code(all[i*d : (i+1)*d])
		}
		close(filled)
	}()
	i := 0
	for hi := range filled {
		for ; i < hi; i++ {
			if lvl := m.walkLevel(src); lvl > 0 {
				m.sampleSiblingInto(slab[i*d:], lvl, src)
			}
		}
	}
	return codes
}

// ObfuscateEnumerate is the literal Alg. 2: it materialises M(x)(·) over
// every leaf of the complete tree and samples from it.
func (m *HSTMechanism) ObfuscateEnumerate(x hst.Code, src *rng.Source) (hst.Code, error) {
	codes, probs, err := m.EnumerateDistribution(x)
	if err != nil {
		return "", err
	}
	i := src.WeightedIndex(probs)
	if i < 0 {
		return "", fmt.Errorf("privacy: degenerate leaf distribution")
	}
	return codes[i], nil
}

// EnumerateLimit bounds the size of complete trees ObfuscateEnumerate and
// EnumerateDistribution will materialise.
const EnumerateLimit = 1 << 21

// EnumerateDistribution returns every leaf code of the complete tree
// together with M(x)(code). It errors when c^D exceeds EnumerateLimit.
func (m *HSTMechanism) EnumerateDistribution(x hst.Code) ([]hst.Code, []float64, error) {
	total := m.tree.TotalLeaves()
	if total > EnumerateLimit {
		return nil, nil, fmt.Errorf("privacy: complete tree has %.3g leaves, over the enumeration limit %d", total, EnumerateLimit)
	}
	n := int(total)
	d, c := m.tree.Depth(), m.tree.Degree()
	codes := make([]hst.Code, 0, n)
	probs := make([]float64, 0, n)
	buf := make([]byte, d)
	var rec func(j int)
	rec = func(j int) {
		if j == d {
			z := hst.Code(buf)
			codes = append(codes, z)
			probs = append(probs, m.LeafProb(x, z))
			return
		}
		for digit := 0; digit < c; digit++ {
			buf[j] = byte(digit)
			rec(j + 1)
		}
	}
	rec(0)
	return codes, probs, nil
}

// sampleSibling returns a uniform leaf of L_lvl(x): keep x's ancestor at
// level lvl, replace the child step below it by a uniform non-ancestor
// digit, and fill the remaining lvl−1 digits uniformly.
func (m *HSTMechanism) sampleSibling(x hst.Code, lvl int, src *rng.Source) hst.Code {
	var stack [walkStackDepth]byte
	buf := stack[:]
	if d := m.tree.Depth(); d > len(buf) {
		buf = make([]byte, d)
	}
	copy(buf, x)
	m.sampleSiblingInto(buf, lvl, src)
	return hst.Code(buf[:m.tree.Depth()])
}

// sampleSiblingInto turns the leaf x held in out[:D] into a uniform leaf of
// L_lvl(x) in place, without allocating: the digits of x's level-lvl
// ancestor stay, the next becomes a uniform non-ancestor digit, and the rest
// a uniform fill.
func (m *HSTMechanism) sampleSiblingInto(out []byte, lvl int, src *rng.Source) {
	d, c := m.tree.Depth(), m.tree.Degree()
	// Uniform digit different from x's at this depth.
	own := int(out[d-lvl])
	digit := src.Intn(c - 1)
	if digit >= own {
		digit++
	}
	out[d-lvl] = byte(digit)
	for j := d - lvl + 1; j < d; j++ {
		out[j] = byte(src.Intn(c))
	}
}

// WalkDistribution computes, analytically, the probability that the
// random walk of Alg. 3 stops at each LCA level: P[level i] =
// (Π_{j<i} pu_j)·(1−pu_i). The tests compare it against LevelProbs to
// prove Theorem 2 (identical distributions) without sampling.
func (m *HSTMechanism) WalkDistribution() []float64 {
	d := m.tree.Depth()
	out := make([]float64, d+1)
	acc := 1.0
	for i := 0; i <= d; i++ {
		out[i] = acc * (1 - m.pu[i])
		acc *= m.pu[i]
	}
	return out
}
