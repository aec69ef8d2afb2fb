package hst

import (
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// LeafIndex is a trie over leaf codes supporting O(D) insertion, removal,
// and nearest-leaf queries in tree distance. The HST-Greedy matcher uses it
// to find, for an arriving task, an unassigned worker with the deepest
// common code prefix — i.e. minimal LCA level, i.e. minimal tree distance.
//
// Among equidistant items the index deterministically returns the smallest
// id, which makes it assignment-for-assignment identical to the O(n)
// scanning implementation of Alg. 4 (which also resolves ties towards the
// lowest index). Multiple items may share a leaf code (several workers can
// be obfuscated to the same leaf).
//
// Layout: the index is arena-backed. All trie nodes live in one contiguous
// []flatNode slab and refer to each other by int32 index, so descent walks
// the slab instead of chasing heap pointers. How a node finds its children is
// a property of the node, read off flatNode.kids: nilIdx is no children, a
// value ≥ 0 is the first child of a digit-tagged sibling list threaded
// through the per-node side slabs (digits, sibs), and a value ≤ blkTag is a
// tagged offset of a dense block in the child arena (one int32 slot per
// digit, degree wide). A node keeps the list while it has at most narrowKids
// children; the insert that would add one more promotes it to a block and the
// removal that brings it back to narrowKids demotes it again, so the child
// arena follows the live set instead of ratcheting up under churn. The padded
// complete tree the mechanism reports over is thin everywhere but its last
// levels — at 16k workers on 4,096 leaves three internal nodes in four have
// one or two children — so paying degree slots only from the third child is
// most of the index's bytes at low density. An index of unknown degree, or
// one above denseDegreeLimit, is the same code that never promotes, which is
// why sibs is allocated for every index (4 B per node) rather than per
// layout. Leaf items sit in a third slab as singly-linked slots. Nodes, child
// blocks, and item slots freed when a subtree empties go on freelists and are
// reused by later inserts, and the root-to-leaf path scratch is owned by the
// index, so in steady state (inserts balancing removals) no operation
// allocates.
//
// Items carry a remaining capacity (Insert seeds 1, InsertCap more): the
// pop operations consume one unit and remove the item only when its last
// unit goes, so a multi-capacity worker keeps answering nearest-queries
// until exhausted. Remove always takes the whole item (a withdrawal), and
// AddCap/Consume adjust a live item's units in place. Len counts items;
// Units counts remaining capacity. Capacities live in a side slab parallel
// to the item arena (caps), allocated when the index sees its first
// multi-unit item: a capacitated population — under a capacity-aware policy
// that is every item — reads a unit count with one indexed load, and a
// capacity-1 deployment (every greedy one) pays zero bytes and one nil check.
//
// Like its map-based predecessor, LeafIndex is not safe for concurrent use;
// callers serialise access (the sharded engine drives one index per shard
// under that shard's lock, which also makes the shared path scratch safe).
type LeafIndex struct {
	depth  int
	degree int // dense child-block width; 0 = nodes never promote off their sibling lists
	size   int // live items
	units  int // Σ remaining capacity over live items

	nodes []flatNode // node arena; index 0 is the root
	kids  []int32    // dense child arena: blocks of degree slots, nilIdx = absent
	items []itemSlot // leaf item arena

	// digits and sibs are per-node side slabs grown in lockstep with nodes:
	// packing a one-byte digit (or a link only list-form children use) into
	// flatNode itself would pad every node back up, so at million-worker
	// scale they live outside. digits[ni] is ni's child digit under its
	// parent; sibs[ni] is ni's next sibling while its parent is in list form
	// (nilIdx at the tail, and on every child of a block-form parent).
	digits []uint8
	sibs   []int32

	// caps is the capacity side slab: caps[si] is the remaining units of
	// item slot si. It stays nil — every item reads as one unit — until the
	// first multi-unit item arrives; from then on it is grown in lockstep
	// with items (same length, sharing its Reserve'd capacity), 4 bytes per
	// slot. Capacities are all-or-nothing per deployment (a capacity-aware
	// policy capacitates the whole population, any other clamps every
	// insert to 1), which is why they are a slab and not a pooled map.
	caps []int32

	freeNode  int32   // head of the freed-node list (linked through flatNode.kids)
	freeItem  int32   // head of the freed-item list (linked through itemSlot.next)
	freeBlock []int32 // freed dense child-block offsets
	freeNodes int     // length of the freed-node list
	freeItems int     // length of the freed-item list

	path []int32 // reusable root-to-leaf descent scratch
	cbuf []byte  // reusable leaf-code scratch for ResolveRef (len depth)
}

// flatNode is one trie position in the arena. 20 bytes (pinned by test):
// the child digit lives in the digits side slab and sibling links in sibs,
// so a 10M-worker shard stays within the int32 arena range with room to
// spare and a realistic shard fits in L2.
type flatNode struct {
	count int32 // live items in this subtree (≥ 1 for every allocated non-root node)
	minID int32 // smallest live item id in this subtree (noItem32 when none)

	// kids says where the children are, per node: nilIdx none; ≥ 0 the first
	// child of a sibling list (sibs/digits), at most narrowKids long wherever
	// the index has a degree to promote to; ≤ blkTag the dense block at
	// LeafIndex.kids[blkTag−kids:], held only while the node has more than
	// narrowKids children. On a freed node it is the freelist link.
	kids   int32
	items  int32 // head of this leaf's item-slot list (nilIdx on freed nodes, so stale refs probe empty)
	parent int32 // parent node (nilIdx for the root), for ref-based commits
}

// itemSlot is one leaf item. 8 bytes (pinned by test): the remaining-capacity
// counter lives in the lazily allocated LeafIndex.caps side slab instead of
// burning a third of every slot on a field that is 1 in every capacity-1
// deployment.
type itemSlot struct {
	id   int32
	next int32
}

const (
	nilIdx   = int32(-1)
	noItem32 = int32(math.MaxInt32)

	// blkTag tags a dense child block in flatNode.kids: block offset off is
	// stored as blkTag−off, which keeps every tagged value clear of nilIdx
	// and of the non-negative list heads.
	blkTag = int32(-2)

	// narrowKids is how many children a node holds as a sibling list before
	// the next one promotes it to a dense block. 2 covers three quarters of
	// the internal nodes at the benchmark's density; 3 and 4 read 11 and 16
	// B/worker less there in one run each with no timing outside noise —
	// raise it only with paired engine-churn and batch-window runs behind it.
	narrowKids = 2

	// denseDegreeLimit bounds the child-block width: nodes of an index
	// declared wider never promote (a dense block per node would waste
	// arena space on mostly-absent digits).
	denseDegreeLimit = 32
)

// ErrIndexFull reports that an insert would grow an arena slab past the
// index's int32 addressing range. Every arena length→int32 conversion is
// guarded by a preflight against this limit, so the index refuses loudly at
// the ceiling instead of silently wrapping node references negative. The
// check is conservative — an insert whose path partially exists may be
// refused one insert early — and removals keep working at the ceiling, so
// a caller can shed load and continue.
var ErrIndexFull = errors.New("hst: index arena full")

// maxArenaLen is the per-slab entry ceiling the ErrIndexFull preflight
// enforces: int32 indexes address at most MaxInt32 entries. A variable so
// overflow regression tests can lower it to something reachable.
var maxArenaLen = int64(math.MaxInt32)

// roomFor errs when inserting a full root-to-leaf path plus one item could
// grow any arena past maxArenaLen. Worst case an insert allocates depth
// fresh nodes, one dense child block (the existing node the new branch hangs
// off may promote; every node below it is fresh and holds one child) and one
// item slot; freelisted entries are reused before the slabs grow, so they
// count against the demand.
func (x *LeafIndex) roomFor() error {
	if need := int64(x.depth - x.freeNodes); need > 0 && int64(len(x.nodes))+need > maxArenaLen {
		return fmt.Errorf("%w: %d nodes + %d would exceed %d", ErrIndexFull, len(x.nodes), need, maxArenaLen)
	}
	if x.degree > 0 && len(x.freeBlock) == 0 && int64(len(x.kids))+int64(x.degree) > maxArenaLen {
		return fmt.Errorf("%w: %d child slots + %d would exceed %d", ErrIndexFull, len(x.kids), x.degree, maxArenaLen)
	}
	if x.freeItems == 0 && int64(len(x.items))+1 > maxArenaLen {
		return fmt.Errorf("%w: %d item slots + 1 would exceed %d", ErrIndexFull, len(x.items), maxArenaLen)
	}
	return nil
}

// NewLeafIndex returns an empty index for codes of the given depth. The
// tree degree is unknown, so every node keeps its sibling list however wide
// it grows; when the degree is available, prefer NewLeafIndexDegree.
func NewLeafIndex(depth int) *LeafIndex {
	return NewLeafIndexDegree(depth, 0)
}

// NewLeafIndexDegree returns an empty index for codes of the given depth
// over a tree with the given branching factor. Degrees in [1,
// denseDegreeLimit] let a node with more than narrowKids children promote to
// a dense block with O(1) digit lookup; under 0 (unknown) or a larger degree
// every node stays a sibling list.
func NewLeafIndexDegree(depth, degree int) *LeafIndex {
	if degree < 0 || degree > denseDegreeLimit {
		degree = 0
	}
	x := &LeafIndex{
		depth:  depth,
		degree: degree,
		nodes:  make([]flatNode, 1, 64),
		digits: make([]uint8, 1, 64),
		sibs:   append(make([]int32, 0, 64), nilIdx),
		path:   make([]int32, 0, depth+1),
		cbuf:   make([]byte, depth),

		freeNode: nilIdx,
		freeItem: nilIdx,
	}
	x.nodes[0] = flatNode{minID: noItem32, kids: nilIdx, items: nilIdx, parent: nilIdx}
	return x
}

// ArenaBytes returns the bytes the index's arena slabs currently reserve
// (capacities, not lengths, since grown capacity stays resident), the
// capacity side slab included once it exists. It is the index's
// contribution to a bytes-per-worker accounting; per-operation scratch is
// excluded.
func (x *LeafIndex) ArenaBytes() int64 {
	b := int64(cap(x.nodes)) * int64(unsafe.Sizeof(flatNode{}))
	b += int64(cap(x.digits))
	b += int64(cap(x.sibs)) * 4
	b += int64(cap(x.kids)) * 4
	b += int64(cap(x.items)) * int64(unsafe.Sizeof(itemSlot{}))
	b += int64(cap(x.freeBlock)) * 4
	b += int64(cap(x.caps)) * 4
	return b
}

// ArenaLens reports the current entry counts of the three arena slabs
// (freelisted entries included) — the sizing hint a same-population bulk
// load passes to Reserve.
func (x *LeafIndex) ArenaLens() (nodes, kids, items int) {
	return len(x.nodes), len(x.kids), len(x.items)
}

// Reserve pre-grows the arena slabs to capacity for at least the given
// entry counts, so a bulk load of known size (an epoch swap replaying its
// population) allocates each slab once instead of climbing the append
// doubling ladder — at ten million workers that ladder's dead half-size
// slabs are themselves a population's worth of transient garbage. Counts
// at or below current capacity do nothing; counts above the int32 arena
// ceiling are clamped to it (inserts past the ceiling still refuse with
// ErrIndexFull). The capacity side slab, once it exists, is reserved along
// with items. Reserve never shrinks and cannot fail.
func (x *LeafIndex) Reserve(nodes, kids, items int) {
	clamp := func(n int) int {
		if int64(n) > maxArenaLen {
			return int(maxArenaLen)
		}
		return n
	}
	if n := clamp(nodes); n > cap(x.nodes) {
		x.nodes = append(make([]flatNode, 0, n), x.nodes...)
		x.digits = append(make([]uint8, 0, n), x.digits...)
		x.sibs = append(make([]int32, 0, n), x.sibs...)
	}
	if x.degree > 0 {
		if n := clamp(kids); n > cap(x.kids) {
			x.kids = append(make([]int32, 0, n), x.kids...)
		}
	}
	if n := clamp(items); n > cap(x.items) {
		x.items = append(make([]itemSlot, 0, n), x.items...)
		if x.caps != nil {
			x.caps = append(make([]int32, 0, n), x.caps...)
		}
	}
}

// Len returns the number of items currently indexed.
func (x *LeafIndex) Len() int { return x.size }

// Units returns the total remaining capacity across all items. For a
// capacity-1 population it equals Len.
func (x *LeafIndex) Units() int { return x.units }

// Insert adds an item id with capacity 1 at the given leaf code. Ids must
// be non-negative and fit in an int32. With a dense child layout every
// digit must be below the declared degree.
func (x *LeafIndex) Insert(code Code, id int) error {
	return x.InsertCap(code, id, 1)
}

// InsertCap is Insert with an explicit remaining capacity (≥ 1): the item
// answers nearest-queries until capacity pops have consumed it.
func (x *LeafIndex) InsertCap(code Code, id, capacity int) error {
	if capacity < 1 {
		return fmt.Errorf("hst: item capacity must be positive, got %d", capacity)
	}
	if capacity > math.MaxInt32 {
		return fmt.Errorf("hst: item capacity %d exceeds the index's int32 range", capacity)
	}
	if len(code) != x.depth {
		return fmt.Errorf("hst: code length %d, index depth %d", len(code), x.depth)
	}
	if id < 0 {
		return fmt.Errorf("hst: item id must be non-negative, got %d", id)
	}
	if id > math.MaxInt32 {
		return fmt.Errorf("hst: item id %d exceeds the index's int32 range", id)
	}
	if x.degree > 0 {
		// Validate before mutating anything: a dense block is indexed by
		// digit, so an out-of-range digit must not corrupt counts.
		for j := 0; j < x.depth; j++ {
			if int(code[j]) >= x.degree {
				return fmt.Errorf("hst: digit %d at position %d exceeds index degree %d", code[j], j, x.degree)
			}
		}
	}
	// Arena overflow is checked up front for the same reason: counts are
	// bumped while descending, so running out of arena mid-path would leave
	// them corrupt.
	if err := x.roomFor(); err != nil {
		return err
	}
	id32 := int32(id)
	ni := int32(0)
	x.bump(ni, id32)
	for j := 0; j < x.depth; j++ {
		ci := x.child(ni, code[j])
		if ci == nilIdx {
			ci = x.addChild(ni, code[j])
		}
		x.bump(ci, id32)
		ni = ci
	}
	si := x.allocItem(id32, int32(capacity))
	x.items[si].next = x.nodes[ni].items
	x.nodes[ni].items = si
	x.size++
	x.units += capacity
	return nil
}

// bump increments a node's count and folds id into its subtree minimum.
func (x *LeafIndex) bump(ni, id int32) {
	n := &x.nodes[ni]
	n.count++
	if id < n.minID {
		n.minID = id
	}
}

// child resolves the child of node ni holding the given digit, or nilIdx.
func (x *LeafIndex) child(ni int32, digit byte) int32 {
	k := x.nodes[ni].kids
	if k <= blkTag {
		if int(digit) >= x.degree {
			return nilIdx
		}
		return x.kids[blkTag-k+int32(digit)]
	}
	for ci := k; ci != nilIdx; ci = x.sibs[ci] {
		if x.digits[ci] == digit {
			return ci
		}
	}
	return nilIdx
}

// block returns the dense child block a tagged (≤ blkTag) kids value names.
func (x *LeafIndex) block(k int32) []int32 {
	return x.kids[blkTag-k : blkTag-k+int32(x.degree)]
}

// addChild allocates a child of ni for the given digit and links it in,
// first promoting ni to a dense block when its sibling list is already
// narrowKids long (and the index has a block width to promote to).
func (x *LeafIndex) addChild(ni int32, digit byte) int32 {
	ci := x.allocNode(digit)
	x.nodes[ci].parent = ni
	k := x.nodes[ni].kids
	if k > blkTag && x.degree > 0 {
		n := 0
		for c := k; c != nilIdx && n < narrowKids; c = x.sibs[c] {
			n++
		}
		if n == narrowKids {
			blk := x.allocBlock()
			for c := k; c != nilIdx; {
				next := x.sibs[c]
				x.kids[blk+int32(x.digits[c])], x.sibs[c] = c, nilIdx
				c = next
			}
			k = blkTag - blk
			x.nodes[ni].kids = k
		}
	}
	if k <= blkTag {
		x.kids[blkTag-k+int32(digit)] = ci
	} else {
		x.sibs[ci] = k
		x.nodes[ni].kids = ci
	}
	return ci
}

// allocNode takes a node off the freelist or grows the arena (the InsertCap
// preflight guarantees room). Callers must not hold *flatNode pointers
// across the call: growth may move the slab.
func (x *LeafIndex) allocNode(digit byte) int32 {
	var ni int32
	if x.freeNode != nilIdx {
		ni = x.freeNode
		x.freeNode = x.nodes[ni].kids
		x.freeNodes--
	} else {
		ni = int32(len(x.nodes))
		x.nodes = append(x.nodes, flatNode{})
		x.digits = append(x.digits, 0)
		x.sibs = append(x.sibs, 0)
	}
	x.nodes[ni] = flatNode{minID: noItem32, kids: nilIdx, items: nilIdx}
	x.digits[ni] = digit
	x.sibs[ni] = nilIdx
	return ni
}

// allocBlock takes a dense child block off the freelist or grows the child
// arena. Freed blocks are all-nilIdx (a demotion clears the survivors' slots
// before it frees the block), so reuse needs no clearing.
func (x *LeafIndex) allocBlock() int32 {
	if n := len(x.freeBlock); n > 0 {
		off := x.freeBlock[n-1]
		x.freeBlock = x.freeBlock[:n-1]
		return off
	}
	off := int32(len(x.kids))
	for i := 0; i < x.degree; i++ {
		x.kids = append(x.kids, nilIdx)
	}
	return off
}

func (x *LeafIndex) allocItem(id, capacity int32) int32 {
	var si int32
	if x.freeItem != nilIdx {
		si = x.freeItem
		x.freeItem = x.items[si].next
		x.freeItems--
	} else {
		si = int32(len(x.items))
		x.items = append(x.items, itemSlot{})
		if x.caps != nil {
			if cap(x.caps) < len(x.items) {
				x.caps = append(make([]int32, 0, cap(x.items)), x.caps...)
			}
			x.caps = append(x.caps, 1)
		}
	}
	x.items[si] = itemSlot{id: id, next: nilIdx}
	// Always written, so a slot off the freelist can never leak its previous
	// tenant's units.
	x.setItemCap(si, capacity)
	return si
}

// itemCap resolves an item slot's remaining capacity: 1 while the side slab
// is unallocated, which keeps capacity-1 populations — every greedy
// deployment — at a nil check per pop.
func (x *LeafIndex) itemCap(si int32) int32 {
	if x.caps == nil {
		return 1
	}
	return x.caps[si]
}

// setItemCap records an item slot's remaining capacity, allocating the side
// slab (every existing slot at one unit, capacity shared with items) the
// first time any item holds more than one.
func (x *LeafIndex) setItemCap(si, c int32) {
	if x.caps == nil {
		if c <= 1 {
			return
		}
		x.caps = make([]int32, len(x.items), cap(x.items))
		for i := range x.caps {
			x.caps[i] = 1
		}
	}
	x.caps[si] = c
}

// freeNodeAt returns an empty node (count 0, no items, no live children) to
// the freelist. Its kids is already nilIdx: unlinkChild demoted any block it
// had on the way down to narrowKids children and emptied the list after.
func (x *LeafIndex) freeNodeAt(ni int32) {
	n := &x.nodes[ni]
	// The freelist threads through kids, never items: a stale CandidateRef
	// may still probe a freed node (ConsumeRef), and walking items there
	// must read an empty list, not a freelist link.
	n.kids = x.freeNode
	n.items = nilIdx
	x.freeNode = ni
	x.freeNodes++
}

// unlinkChild detaches child ci from parent pi, demoting pi's dense block
// back to a sibling list (and freeing the block, left all-nilIdx) when the
// removal brings it down to narrowKids children.
func (x *LeafIndex) unlinkChild(pi, ci int32) {
	k := x.nodes[pi].kids
	if k <= blkTag {
		blk := x.block(k)
		blk[x.digits[ci]] = nilIdx
		var keep [narrowKids]int32
		n := 0
		for _, c := range blk {
			if c == nilIdx {
				continue
			}
			if n == narrowKids {
				return // still wider than a list holds
			}
			keep[n] = c
			n++
		}
		head := nilIdx
		for n--; n >= 0; n-- {
			c := keep[n]
			blk[x.digits[c]] = nilIdx
			x.sibs[c], head = head, c
		}
		x.nodes[pi].kids = head
		x.freeBlock = append(x.freeBlock, blkTag-k)
		return
	}
	prev := nilIdx
	for cur := k; cur != nilIdx; cur = x.sibs[cur] {
		if cur == ci {
			if prev == nilIdx {
				x.nodes[pi].kids = x.sibs[ci]
			} else {
				x.sibs[prev] = x.sibs[ci]
			}
			return
		}
		prev = cur
	}
}

// Remove deletes one occurrence of id at the given leaf code — the whole
// item, whatever capacity it has left (a withdrawal, not a pop). It reports
// whether the item was present.
func (x *LeafIndex) Remove(code Code, id int) bool {
	_, ok := x.RemoveUnits(code, id)
	return ok
}

// RemoveUnits is Remove reporting how many capacity units the removed item
// still carried — the ground truth a caller relocating a live item needs,
// since concurrent pops may have consumed units its own accounting has not
// seen yet.
func (x *LeafIndex) RemoveUnits(code Code, id int) (units int, ok bool) {
	if len(code) != x.depth || id < 0 || id > math.MaxInt32 {
		return 0, false
	}
	// Locate the leaf first so failed removals do not corrupt counts.
	path := x.path[:0]
	ni := int32(0)
	path = append(path, ni)
	for j := 0; j < x.depth; j++ {
		ni = x.child(ni, code[j])
		if ni == nilIdx {
			return 0, false
		}
		path = append(path, ni)
	}
	removed, ok := x.removeItem(ni, int32(id))
	if !ok {
		return 0, false
	}
	x.repair(path, int32(id))
	x.size--
	x.units -= int(removed)
	return int(removed), true
}

// removeItem unlinks one occurrence of id from the leaf's item list,
// returning the capacity it still carried.
func (x *LeafIndex) removeItem(ni, id int32) (capacity int32, ok bool) {
	prev := nilIdx
	for si := x.nodes[ni].items; si != nilIdx; si = x.items[si].next {
		if x.items[si].id == id {
			if prev == nilIdx {
				x.nodes[ni].items = x.items[si].next
			} else {
				x.items[prev].next = x.items[si].next
			}
			capacity = x.itemCap(si)
			x.items[si].next = x.freeItem
			x.freeItem = si
			x.freeItems++
			return capacity, true
		}
		prev = si
	}
	return 0, false
}

// consumeItem takes one capacity unit from id's item at leaf ni, unlinking
// the item when its last unit goes. removed reports a structural removal
// (the caller must then repair counts along the path).
func (x *LeafIndex) consumeItem(ni, id int32) (removed, ok bool) {
	for si := x.nodes[ni].items; si != nilIdx; si = x.items[si].next {
		if x.items[si].id == id {
			if c := x.itemCap(si); c > 1 {
				x.setItemCap(si, c-1)
				x.units--
				return false, true
			}
			x.removeItem(ni, id)
			x.units--
			return true, true
		}
	}
	return false, false
}

// ErrNoItem is AddCap's refusal when the (code, id) item is not live —
// consumed away, withdrawn or never inserted. A caller restoring a fully
// consumed (hence removed) item answers it with InsertCap.
var ErrNoItem = errors.New("hst: no such item")

// ErrUnitsOverflow is AddCap's refusal when the item is live but the sum
// would pass the int32 range InsertCap enforces: the item keeps what it has,
// and inserting instead would put a second item under the same id.
var ErrUnitsOverflow = errors.New("hst: item capacity would exceed the index's int32 range")

// AddCap returns delta (≥ 1) capacity units to the live item id at the
// given leaf code. A refusal says which kind it was — ErrNoItem or
// ErrUnitsOverflow — and mutates nothing.
func (x *LeafIndex) AddCap(code Code, id, delta int) error {
	if delta < 1 {
		return fmt.Errorf("hst: capacity delta must be positive, got %d", delta)
	}
	if len(code) != x.depth || id < 0 || id > math.MaxInt32 {
		return ErrNoItem
	}
	ni := int32(0)
	for j := 0; j < x.depth; j++ {
		ni = x.child(ni, code[j])
		if ni == nilIdx {
			return ErrNoItem
		}
	}
	for si := x.nodes[ni].items; si != nilIdx; si = x.items[si].next {
		if x.items[si].id == int32(id) {
			sum := int64(x.itemCap(si)) + int64(delta)
			if sum > math.MaxInt32 {
				return ErrUnitsOverflow
			}
			x.setItemCap(si, int32(sum))
			x.units += delta
			return nil
		}
	}
	return ErrNoItem
}

// Consume takes one capacity unit from the item id at the given leaf code,
// removing the item when its last unit goes. It reports whether the item
// was present. It is the code-addressed commit for a candidate enumerated
// non-destructively and resolved with ResolveRef; same-index callers commit
// through ConsumeRef instead.
func (x *LeafIndex) Consume(code Code, id int) bool {
	if len(code) != x.depth || id < 0 || id > math.MaxInt32 {
		return false
	}
	path := x.path[:0]
	ni := int32(0)
	path = append(path, ni)
	for j := 0; j < x.depth; j++ {
		ni = x.child(ni, code[j])
		if ni == nilIdx {
			return false
		}
		path = append(path, ni)
	}
	removed, ok := x.consumeItem(ni, int32(id))
	if !ok {
		return false
	}
	if removed {
		x.repair(path, int32(id))
		x.size--
	}
	return true
}

// repair walks a root-anchored path bottom-up after the removal of id:
// counts drop, emptied nodes are unlinked and freed, and a node's subtree
// minimum is recomputed only when the removed id was that minimum — the
// only case in which it can have changed.
func (x *LeafIndex) repair(path []int32, id int32) {
	for i := len(path) - 1; i >= 1; i-- {
		ni := path[i]
		n := &x.nodes[ni]
		n.count--
		if n.count == 0 {
			x.unlinkChild(path[i-1], ni)
			x.freeNodeAt(ni)
		} else if n.minID == id {
			n.minID = x.recomputeMin(ni)
		}
	}
	r := &x.nodes[0]
	r.count--
	if r.minID == id {
		r.minID = x.recomputeMin(0)
	}
}

// recomputeMin scans a node's own items and its live children for the
// smallest id (noItem32 when the subtree is empty).
func (x *LeafIndex) recomputeMin(ni int32) int32 {
	n := &x.nodes[ni]
	min := noItem32
	for si := n.items; si != nilIdx; si = x.items[si].next {
		if x.items[si].id < min {
			min = x.items[si].id
		}
	}
	if n.kids <= blkTag {
		for _, ci := range x.block(n.kids) {
			if ci != nilIdx && x.nodes[ci].minID < min {
				min = x.nodes[ci].minID
			}
		}
	} else {
		for ci := n.kids; ci != nilIdx; ci = x.sibs[ci] {
			if x.nodes[ci].minID < min {
				min = x.nodes[ci].minID
			}
		}
	}
	return min
}

// Nearest returns the smallest-id item whose code has the deepest common
// prefix with the query code, along with the resulting LCA level (0 when
// the item sits on the query leaf itself). ok is false when the index is
// empty or the code is malformed.
func (x *LeafIndex) Nearest(code Code) (id, lcaLevel int, ok bool) {
	if x.size == 0 || len(code) != x.depth {
		return 0, 0, false
	}
	ni := int32(0)
	j := 0
	for j < x.depth {
		ci := x.child(ni, code[j])
		if ci == nilIdx {
			break
		}
		ni = ci
		j++
	}
	// Every live item under ni shares exactly the first j digits with the
	// query (the exact branch below ni is exhausted), so all of them are at
	// LCA level depth−j — the minimum possible — and minID picks the
	// deterministic representative.
	return int(x.nodes[ni].minID), x.depth - j, true
}

// MinID returns the smallest live item id. ok is false when the index is
// empty. The assignment engine uses it to break cross-shard ties towards
// the lowest id, matching the scanning implementation of Alg. 4.
func (x *LeafIndex) MinID() (int, bool) {
	if x.size == 0 {
		return 0, false
	}
	return int(x.nodes[0].minID), true
}

// CountPrefix returns the number of live items whose code starts with the
// given prefix — the occupancy of the complete-tree node the prefix
// identifies (level D−len(prefix)). An empty prefix counts everything.
func (x *LeafIndex) CountPrefix(prefix Code) int {
	if len(prefix) > x.depth {
		return 0
	}
	ni := int32(0)
	for j := 0; j < len(prefix); j++ {
		ni = x.child(ni, prefix[j])
		if ni == nilIdx {
			return 0
		}
	}
	return int(x.nodes[ni].count)
}

// PopNearest atomically finds and removes the item Nearest would return:
// the smallest-id item with the deepest common code prefix with the query.
// Unlike Nearest+Remove it needs no external code table and traverses the
// trie once down and once up.
func (x *LeafIndex) PopNearest(code Code) (id, lcaLevel int, ok bool) {
	return x.PopNearestWithin(code, x.depth)
}

// PopNearestWithin is PopNearest restricted to candidates whose LCA with
// the query sits at level ≤ maxLevel: when even the nearest item is farther,
// nothing is removed and ok is false (lcaLevel still reports the level the
// nearest item would have had). The sharded engine uses it to detect when a
// query must fall back to a cross-shard search.
func (x *LeafIndex) PopNearestWithin(code Code, maxLevel int) (id, lcaLevel int, ok bool) {
	if x.size == 0 || len(code) != x.depth {
		return 0, 0, false
	}
	path := x.path[:0]
	ni := int32(0)
	path = append(path, ni)
	j := 0
	for j < x.depth {
		ci := x.child(ni, code[j])
		if ci == nilIdx {
			break
		}
		ni = ci
		path = append(path, ni)
		j++
	}
	lvl := x.depth - j
	if lvl > maxLevel {
		return 0, lvl, false
	}
	return x.popMinFrom(path), lvl, true
}

// PopNearestWithinCode is PopNearestWithin that additionally writes the
// popped item's leaf code into dst[:depth]. The batch engine's speculative
// shard-parallel path uses it to record an undo token per pop: the (code,
// id) pair is exactly what AddCap/InsertCap need to put the consumed unit
// back when a deterministic fallback pass rewinds a shard. dst must have
// room for depth digits; it is written only on a successful pop.
func (x *LeafIndex) PopNearestWithinCode(code Code, maxLevel int, dst []byte) (id, lcaLevel int, ok bool) {
	if x.size == 0 || len(code) != x.depth || len(dst) < x.depth {
		return 0, 0, false
	}
	path := x.path[:0]
	ni := int32(0)
	path = append(path, ni)
	j := 0
	for j < x.depth {
		ci := x.child(ni, code[j])
		if ci == nilIdx {
			break
		}
		ni = ci
		path = append(path, ni)
		j++
	}
	lvl := x.depth - j
	if lvl > maxLevel {
		return 0, lvl, false
	}
	// The first j digits of the popped leaf are the query's own (the exact
	// branch matched that far); the rest come off the descent to the minID
	// leaf, each node carrying its digit under its parent.
	copy(dst, code[:j])
	target := x.nodes[ni].minID
	for depthAt := j; depthAt < x.depth; depthAt++ {
		ni = x.childWithMin(ni, target)
		dst[depthAt] = x.digits[ni]
		path = append(path, ni)
	}
	removed, _ := x.consumeItem(ni, target)
	if removed {
		x.repair(path, target)
		x.size--
	}
	return int(target), lvl, true
}

// PopMin atomically removes and returns the smallest live item id. ok is
// false when the index is empty.
func (x *LeafIndex) PopMin() (int, bool) {
	if x.size == 0 {
		return 0, false
	}
	path := append(x.path[:0], 0)
	return x.popMinFrom(path), true
}

// popMinFrom consumes one capacity unit of the minID item under the last
// node of path (a root-anchored trie path). Items usually carry one unit,
// in which case the item is removed and counts and minIDs repaired along
// the way; a multi-capacity item just loses a unit and stays in place.
func (x *LeafIndex) popMinFrom(path []int32) int {
	ni := path[len(path)-1]
	target := x.nodes[ni].minID
	for depthAt := len(path) - 1; depthAt < x.depth; depthAt++ {
		// A live subtree always contains its own minID: descend into the
		// child carrying it.
		ni = x.childWithMin(ni, target)
		path = append(path, ni)
	}
	removed, _ := x.consumeItem(ni, target)
	if removed {
		x.repair(path, target)
		x.size--
	}
	return int(target)
}

// childWithMin returns the child of ni whose subtree minimum is target.
func (x *LeafIndex) childWithMin(ni, target int32) int32 {
	n := &x.nodes[ni]
	if n.kids <= blkTag {
		for _, ci := range x.block(n.kids) {
			if ci != nilIdx && x.nodes[ci].minID == target {
				return ci
			}
		}
	} else {
		for ci := n.kids; ci != nilIdx; ci = x.sibs[ci] {
			if x.nodes[ci].minID == target {
				return ci
			}
		}
	}
	return nilIdx
}

// Walk visits every indexed item (code, id). Order is unspecified.
func (x *LeafIndex) Walk(fn func(code Code, id int)) {
	x.WalkCap(func(code Code, id, _ int) { fn(code, id) })
}

// WalkCap visits every indexed item (code, id, remaining capacity). Order
// is unspecified.
func (x *LeafIndex) WalkCap(fn func(code Code, id, capacity int)) {
	if x.size == 0 {
		return
	}
	prefix := make([]byte, 0, x.depth)
	x.walk(0, prefix, fn)
}

func (x *LeafIndex) walk(ni int32, prefix []byte, fn func(code Code, id, capacity int)) {
	n := x.nodes[ni]
	for si := n.items; si != nilIdx; si = x.items[si].next {
		fn(Code(prefix), int(x.items[si].id), int(x.itemCap(si)))
	}
	if n.kids <= blkTag {
		for d, ci := range x.block(n.kids) {
			if ci != nilIdx {
				x.walk(ci, append(prefix, byte(d)), fn)
			}
		}
	} else {
		for ci := n.kids; ci != nilIdx; ci = x.sibs[ci] {
			x.walk(ci, append(prefix, x.digits[ci]), fn)
		}
	}
}

// Candidate is one live item in code-addressed form: everything an
// assignment decision taken away from this index (a cluster coordinator
// solving a window over several nodes' tries) needs to rank the item and
// later commit through Consume. The enumeration queries surface arena refs
// (NearestKRef, SmallestKRef in ref.go); ResolveRef turns one into this.
type Candidate struct {
	ID    int  // item id
	Code  Code // the item's leaf code (for the Consume commit)
	Level int  // LCA level with the query code
	Cap   int  // remaining capacity units
}
