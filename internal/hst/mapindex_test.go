package hst

import (
	"fmt"
	"math"
)

// mapLeafIndex is the original pointer-and-map implementation of the leaf
// trie: one heap-allocated node per trie position, children behind a
// map[byte]*trieNode. It is retained as the behavioural reference for the
// arena-backed LeafIndex — the differential tests drive both with identical
// operation sequences and require identical answers — and as the baseline
// the flat layout is benchmarked against. It is not used on any serving
// path. Where one id sits on several leaves — no engine population holds it
// — a pop takes the one with the smallest leaf code, the order the index
// mines such twins in.
type mapLeafIndex struct {
	depth int
	size  int
	root  *trieNode
}

type trieNode struct {
	children map[byte]*trieNode
	count    int   // live items in this subtree
	minID    int   // smallest live item id in this subtree (maxInt when none)
	items    []int // ids, leaf nodes only
}

const noItem = math.MaxInt

// newMapLeafIndex returns an empty map-trie index for codes of the given
// depth.
func newMapLeafIndex(depth int) *mapLeafIndex {
	return &mapLeafIndex{depth: depth, root: &trieNode{minID: noItem}}
}

// Len returns the number of items currently indexed.
func (x *mapLeafIndex) Len() int { return x.size }

// Insert adds an item id at the given leaf code. Ids must be non-negative.
func (x *mapLeafIndex) Insert(code Code, id int) error {
	if len(code) != x.depth {
		return fmt.Errorf("hst: code length %d, index depth %d", len(code), x.depth)
	}
	if id < 0 {
		return fmt.Errorf("hst: item id must be non-negative, got %d", id)
	}
	n := x.root
	n.count++
	if id < n.minID {
		n.minID = id
	}
	for j := 0; j < x.depth; j++ {
		if n.children == nil {
			n.children = make(map[byte]*trieNode)
		}
		ch := n.children[code[j]]
		if ch == nil {
			ch = &trieNode{minID: noItem}
			n.children[code[j]] = ch
		}
		ch.count++
		if id < ch.minID {
			ch.minID = id
		}
		n = ch
	}
	n.items = append(n.items, id)
	x.size++
	return nil
}

// Remove deletes one occurrence of id at the given leaf code. It reports
// whether the item was present.
func (x *mapLeafIndex) Remove(code Code, id int) bool {
	if len(code) != x.depth {
		return false
	}
	// Locate the leaf first so failed removals do not corrupt counts.
	path := make([]*trieNode, 0, x.depth+1)
	n := x.root
	path = append(path, n)
	for j := 0; j < x.depth; j++ {
		if n.children == nil {
			return false
		}
		n = n.children[code[j]]
		if n == nil {
			return false
		}
		path = append(path, n)
	}
	found := -1
	for i, item := range n.items {
		if item == id {
			found = i
			break
		}
	}
	if found < 0 {
		return false
	}
	last := len(n.items) - 1
	n.items[found] = n.items[last]
	n.items = n.items[:last]
	// Decrement counts bottom-up along the path. A node's minimum can only
	// have changed when the removed id was that minimum.
	for i := len(path) - 1; i >= 0; i-- {
		p := path[i]
		p.count--
		if p.minID == id {
			p.minID = p.recomputeMin()
		}
	}
	x.size--
	return true
}

func (n *trieNode) recomputeMin() int {
	min := noItem
	for _, id := range n.items {
		if id < min {
			min = id
		}
	}
	for _, ch := range n.children {
		if ch.count > 0 && ch.minID < min {
			min = ch.minID
		}
	}
	return min
}

// Nearest returns the smallest-id item whose code has the deepest common
// prefix with the query code, along with the resulting LCA level.
func (x *mapLeafIndex) Nearest(code Code) (id, lcaLevel int, ok bool) {
	if x.size == 0 || len(code) != x.depth {
		return 0, 0, false
	}
	n := x.root
	j := 0
	for j < x.depth {
		ch := n.children[code[j]]
		if ch == nil || ch.count == 0 {
			break
		}
		n = ch
		j++
	}
	return n.minID, x.depth - j, true
}

// CountPrefix returns the number of live items whose code starts with the
// given prefix.
func (x *mapLeafIndex) CountPrefix(prefix Code) int {
	if len(prefix) > x.depth {
		return 0
	}
	n := x.root
	for j := 0; j < len(prefix); j++ {
		if n.children == nil {
			return 0
		}
		n = n.children[prefix[j]]
		if n == nil {
			return 0
		}
	}
	return n.count
}

// PopNearest atomically finds and removes the item Nearest would return.
func (x *mapLeafIndex) PopNearest(code Code) (id, lcaLevel int, ok bool) {
	return x.PopNearestWithin(code, x.depth)
}

// PopNearestWithin is PopNearest restricted to candidates whose LCA with
// the query sits at level ≤ maxLevel.
func (x *mapLeafIndex) PopNearestWithin(code Code, maxLevel int) (id, lcaLevel int, ok bool) {
	if x.size == 0 || len(code) != x.depth {
		return 0, 0, false
	}
	path := make([]*trieNode, 0, x.depth+1)
	n := x.root
	path = append(path, n)
	j := 0
	for j < x.depth {
		ch := n.children[code[j]]
		if ch == nil || ch.count == 0 {
			break
		}
		n = ch
		path = append(path, n)
		j++
	}
	lvl := x.depth - j
	if lvl > maxLevel {
		return 0, lvl, false
	}
	return x.popMinFrom(path), lvl, true
}

// popMinFrom removes the minID item under the last node of path (a
// root-anchored trie path) and repairs counts and minIDs along the way.
func (x *mapLeafIndex) popMinFrom(path []*trieNode) int {
	n := path[len(path)-1]
	target := n.minID
	for depthAt := len(path) - 1; depthAt < x.depth; depthAt++ {
		var next *trieNode
		for digit := 0; digit < 256 && next == nil; digit++ {
			if ch := n.children[byte(digit)]; ch != nil && ch.count > 0 && ch.minID == target {
				next = ch
			}
		}
		n = next // a live subtree always contains its own minID: the first child, in digit order, that carries it
		path = append(path, n)
	}
	for i, item := range n.items {
		if item == target {
			last := len(n.items) - 1
			n.items[i] = n.items[last]
			n.items = n.items[:last]
			break
		}
	}
	for i := len(path) - 1; i >= 0; i-- {
		p := path[i]
		p.count--
		if p.minID == target {
			p.minID = p.recomputeMin()
		}
	}
	x.size--
	return target
}

// Walk visits every indexed item (code, id). Order is unspecified.
func (x *mapLeafIndex) Walk(fn func(code Code, id int)) {
	var rec func(n *trieNode, prefix []byte)
	rec = func(n *trieNode, prefix []byte) {
		if n.count == 0 {
			return
		}
		for _, id := range n.items {
			fn(Code(prefix), id)
		}
		for digit, ch := range n.children {
			rec(ch, append(prefix, digit))
		}
	}
	rec(x.root, make([]byte, 0, x.depth))
}
