package hst

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"unsafe"
)

// LeafIndex is a burst trie (Heinz, Zobel & Williams 2002) over leaf codes
// supporting insertion, removal, and nearest-leaf queries in tree distance.
// The HST-Greedy matcher uses it to find, for an arriving task, an
// unassigned worker with the deepest common code prefix — i.e. minimal LCA
// level, i.e. minimal tree distance.
//
// Among equidistant items the index deterministically returns the smallest
// id, which makes it assignment-for-assignment identical to the O(n)
// scanning implementation of Alg. 4 (which also resolves ties towards the
// lowest index). Multiple items may share a leaf code (several workers can
// be obfuscated to the same leaf). One id on several leaves — the engine
// never produces it — mines in leaf-code order and pops in any.
//
// Layout: two node shapes, both arena-backed and addressed by int32. An
// inner node is a (count, minID) pair over a degree-wide child block and
// exists only where a subtree holds more than burstMax items; below that a
// whole subtree is one bucket — its items as (id, suffix) pairs, the suffix
// being the item's last digits packed bits.Len(degree−1) bits each into one
// word. Why buckets: the mechanism scatters reports over the padded complete
// tree, so at the benchmark's density a node-per-prefix trie spends three
// nodes in four on one- and two-item subtrees (75.7 B/worker of index at 16k
// workers, eleven dependent hops an operation, out of L2 at 262k); a bucket
// pays 8 bytes an item, and the few inner nodes left above the buckets stay
// cache-resident. A query descends the inner nodes on its exact branch and
// scans one bucket for (deepest common suffix, then smallest id): the level
// is the bit length of suffix XOR query, rounded up to whole digits. A
// bucket that passes burstMax bursts into an inner node over one child
// bucket per next digit — unless every item shares that digit, when a
// one-leaf neighbourhood would pay a chain of one-child nodes to split
// nothing — and an inner node that falls to foldMin folds back into one
// bucket; the gap between the two keeps churn at the edge from thrashing.
// Why 96: a full bucket's scan is most of a pop, so smaller buckets mine
// faster and larger ones hold 262k workers in fewer bytes — 64 / 96 / 128 read
// engine-churn 0.96 / 1.07 / 1.05 M tasks/s, batch-window 443 / 427 / 405 k,
// the index 15.7 / 10.5 / 10.2 B — and at 128 the gated capacity-greedy row
// reads 1.5× the trie before (CHANGES.md, PR 26). A bucket can sit no higher than
// a suffix word reaches (bdepth): above it a prefix is an inner node however thin.
//
// Bucket storage is exact-fit: fixed chunks of chunkLen items chained per
// bucket, only the head chunk partly full. Contiguous power-of-two runs read
// 22 B/worker where one leaf holds hundreds of workers (a leaf-depth bucket
// cannot burst) and grew a quarter under a hotspot's drain; chunks waste
// half a chunk a bucket and nothing under churn, because a freed chunk fits
// any bucket. Chunks sit on fixed pages of pageLen: the item arena grows a
// page at a time and never copies (a slab grown by a sixteenth copied
// itself ~16 times over a load, 38 % of a bulk insert at 262k workers).
// Inner nodes, buckets and chunks freed when a subtree empties,
// bursts or folds go on freelists and are reused by later inserts, and the
// descent scratch is owned by the index, so in steady state (inserts
// balancing removals) no operation allocates.
//
// Items carry a remaining capacity (Insert seeds 1, InsertCap more): the
// pop operations consume one unit and remove the item only when its last
// unit goes, so a multi-capacity worker keeps answering nearest-queries
// until exhausted. Remove always takes the whole item (a withdrawal),
// AddCap/Consume adjust a live item's units in place, and MoveCap carries
// them to a fresh leaf. Len counts items; Units counts remaining capacity.
//
// Like its map-based predecessor, LeafIndex is not safe for concurrent use;
// callers serialise access (the engine drives its index under its one lock,
// which also makes the shared scratch safe).
type LeafIndex struct {
	depth  int
	width  int  // child-block width: the tree degree, 256 when unknown
	bits   uint // bits one digit takes in a suffix word
	bdepth int  // shallowest depth a bucket may sit at: depth − digits a suffix word holds
	size   int  // live items
	units  int  // Σ remaining capacity over live items

	root    int32     // ref of the root: an inner node, or a bucket while bdepth is 0
	nodes   []inner   // inner-node arena
	kids    []int32   // child blocks, node ni's at kids[ni·width:]: a ref per digit
	buckets []bucket  // bucket arena
	pages   [][]chunk // item arena, pageLen chunks a page: chunk c is pages[c>>pageBits][c&(pageLen-1)]
	next    []int32   // per chunk: the next chunk of its bucket's chain, nilIdx after the last

	// caps is the capacity side arena: capOf(s) holds item slot s's
	// remaining units less one. It stays nil — every item reads as one unit,
	// at zero bytes and one nil check a pop — until the first multi-unit
	// item arrives, and from then on holds a page for every item page.
	// Capacities are all-or-nothing per deployment (a capacity-aware policy
	// capacitates the whole population, any other clamps every insert to 1),
	// hence whole pages.
	caps [][][chunkLen]int32

	freeNode, freeBucket, freeChunk int32 // freelist heads, linked through inner.up, bucket.head, next
	freeNodes, freeChunks           int   // lengths of the two the ErrIndexFull preflight counts on

	lvl  [33]uint8 // LCA level by bit length of suffix XOR query
	path []int32   // reusable descent scratch: the inner nodes above a bucket
	cbuf []byte    // reusable leaf-code scratch for ResolveRef (len depth)
	kbuf []uint64  // NearestKRef's per-depth child sort scratch, allocated by the first query
}

// A ref names a child: nilIdx none, ≥ 0 the inner node of that index,
// < nilIdx bucket bucketRef(ref).
func bucketRef(r int32) int32 { return -2 - r }

// inner is one inner node, 12 bytes (pinned by test). up is the kids slot
// naming it — parent up/width, digit up%width — negative on the root; on a
// freed node it is the freelist link.
type inner struct {
	count int32 // live items in this subtree
	minID int32 // smallest live item id in this subtree (noItem32 when none)
	up    int32
}

// bucket is one subtree held as a chain of item chunks, 16 bytes (pinned by
// test). head is the newest chunk, the only one partly full: fill() items,
// (count−1) mod chunkLen + 1. On a freed bucket count is 0, head is the freelist
// link, and up is where its items went: the ref of the bucket a fold merged
// it into, or nilIdx when it simply emptied — so a CandidateRef mined before
// a run of removals still finds its item after them.
type bucket struct {
	count int32
	minID int32
	head  int32
	up    int32
}

func (b *bucket) fill() int32 { return (b.count-1)&(chunkLen-1) + 1 }

func (x *LeafIndex) block(ni int32) []int32 {
	return x.kids[int(ni)*x.width : (int(ni)+1)*x.width]
}

// item is one indexed worker, 8 bytes (pinned by test): sfx is its code's
// digits from bdepth on, most significant first; the ones before are its path.
type item struct {
	id  int32
	sfx uint32
}

// chunk is one link of a bucket's chain; item slot s is chunk s>>chunkBits.
type chunk [chunkLen]item

// chunk, item and capOf address a chunk, an item slot and the slot's
// capacity cell with one page lookup, by shift and mask. A page is a slice,
// not an array pointer: its bounds check is a compare, where a pointer's
// nil check loads the page's first line — 6 % of a worker insert.
func (x *LeafIndex) chunk(c int32) *chunk { return &x.pages[uint32(c)>>pageBits][c&(pageLen-1)] }
func (x *LeafIndex) item(s int32) *item   { return &x.chunk(s >> chunkBits)[s&(chunkLen-1)] }
func (x *LeafIndex) capOf(s int32) *int32 {
	return &x.caps[uint32(s)>>(chunkBits+pageBits)][s>>chunkBits&(pageLen-1)][s&(chunkLen-1)]
}

const (
	nilIdx   = int32(-1)
	noItem32 = int32(math.MaxInt32)

	// burstMax is the item count past which a bucket bursts, foldMin the
	// count at which an inner node folds back into one.
	burstMax = 96
	foldMin  = 36

	// chunkLen is the items in a bucket chunk: two cache lines, and a power
	// of two so a bucket's head fill is a mask of its count.
	chunkBits = 4
	chunkLen  = 1 << chunkBits

	// pageLen is the chunks on a page: 4 KiB of items, 2 KiB of capacities,
	// both allocator size classes. Larger pages idle more in a small index.
	pageBits = 5
	pageLen  = 1 << pageBits
)

// ErrIndexFull reports that an insert would grow an arena slab past the
// index's int32 addressing range: the index refuses loudly at the ceiling
// instead of silently wrapping references negative. The check is
// conservative — it keeps room for the deepest burst any insert could set
// off — and removals keep working at the ceiling, so a caller can shed load
// and continue.
var ErrIndexFull = errors.New("hst: index arena full")

// MaxArenaLen is the per-slab entry ceiling the ErrIndexFull preflight
// enforces: int32 indexes address at most MaxInt32 entries. A variable so
// that overflow regression tests, here and in packages that build indexes,
// can lower it to something reachable; serving code never writes it.
var MaxArenaLen = int64(math.MaxInt32)

// burstSpan bounds the chunks one insert can add: a burst opens at most a
// partly filled chunk per child, and one more while it reads the last chunk
// out, and can cascade one depth at a time down to the leaves.
func (x *LeafIndex) burstSpan() int64 { return int64(x.width+1)*int64(x.depth-x.bdepth) + 2 }

// roomFor errs when an insert's worst case — a fresh path of inner nodes, or
// a cascade of bursts — could grow the two int32-indexed slabs, child slots
// and item slots, past MaxArenaLen. Freelisted entries are reused before the
// slabs grow, so they count against the demand.
func (x *LeafIndex) roomFor() error {
	return x.room(int64(len(x.nodes)-x.freeNodes+x.depth+1), int64(len(x.next)-x.freeChunks)+x.burstSpan())
}

func (x *LeafIndex) room(nodes, chunks int64) error {
	if nodes*int64(x.width) > MaxArenaLen || chunks*chunkLen > MaxArenaLen {
		return fmt.Errorf("%w: %d inner nodes of %d child slots or %d chunks of %d items would exceed %d",
			ErrIndexFull, nodes, x.width, chunks, chunkLen, MaxArenaLen)
	}
	return nil
}

// Fits reports whether n items, whatever their codes, can be inserted into
// an empty index of this shape without meeting ErrIndexFull. The bound is
// the worst case over codes — every item alone in its bucket; an inner node
// for each of the min(n, width^j) prefixes at a depth j above bdepth, and
// below it wherever more than foldMin items meet — so a bulk load that must
// not fail half way (an epoch swap that has torn the old population down)
// asks before it starts.
func (x *LeafIndex) Fits(n int) error {
	nodes, reach := int64(x.depth+2), int64(1)
	for j := 0; j < x.bdepth; j++ {
		nodes += reach
		reach = min(reach*int64(x.width), int64(n))
	}
	nodes += int64(x.depth-x.bdepth) * int64(n) / foldMin
	return x.room(nodes, int64(n)+x.burstSpan())
}

// NewLeafIndex returns an empty index for codes of the given depth whose
// tree degree is unknown: child blocks take a slot for every byte value.
func NewLeafIndex(depth int) *LeafIndex {
	return NewLeafIndexDegree(depth, 0)
}

// NewLeafIndexDegree returns an empty index for codes of the given depth
// over a tree with the given branching factor (outside [1, 256]: unknown).
// The degree sets the child-block width and how many digits a suffix word
// holds, and every inserted digit must be below it.
func NewLeafIndexDegree(depth, degree int) *LeafIndex {
	if degree < 1 || degree > 256 {
		degree = 256
	}
	x := &LeafIndex{
		depth: depth,
		width: degree,
		bits:  uint(max(1, bits.Len(uint(degree-1)))),
		path:  make([]int32, 0, depth+1),
		cbuf:  make([]byte, depth),

		freeNode: nilIdx, freeBucket: nilIdx, freeChunk: nilIdx,
	}
	x.bdepth = max(0, depth-32/int(x.bits))
	for l := range x.lvl {
		x.lvl[l] = uint8((uint(l) + x.bits - 1) / x.bits)
	}
	if x.bdepth == 0 {
		x.root = bucketRef(x.allocBucket(nilIdx))
	} else {
		x.root = x.allocNode(nilIdx)
	}
	return x
}

// ArenaBytes returns the bytes the index's arenas currently reserve
// (capacities, not lengths, since grown capacity stays resident; pages
// whole) — the index's contribution to a bytes-per-worker accounting;
// per-operation scratch and the page spines are excluded.
func (x *LeafIndex) ArenaBytes() int64 {
	b := int64(cap(x.nodes)) * int64(unsafe.Sizeof(inner{}))
	b += int64(cap(x.kids)) * 4
	b += int64(cap(x.buckets)) * int64(unsafe.Sizeof(bucket{}))
	b += int64(len(x.pages)) * pageLen * int64(unsafe.Sizeof(chunk{}))
	b += int64(cap(x.next)) * 4
	b += int64(len(x.caps)) * pageLen * chunkLen * 4
	return b
}

// ArenaLens reports the entry counts of the three arenas, freelisted entries
// included: the sizing hint a same-population bulk load passes to Reserve.
// The item pages are the chunks over pageLen, rounded up.
func (x *LeafIndex) ArenaLens() (nodes, buckets, chunks int) {
	return len(x.nodes), len(x.buckets), len(x.next)
}

// Reserve pre-grows the slabs — nodes, child blocks, buckets, chunk links
// and the page spine — to capacity for at least the given entry counts, so
// a bulk load of known size (an epoch swap replaying its population)
// allocates its item pages and nothing else, instead of climbing the append
// doubling ladder whose dead slabs are a population's worth of garbage at
// ten million workers. Counts above the int32 arena ceiling are clamped to
// it (inserts past the ceiling still refuse with ErrIndexFull). Reserve
// never shrinks and cannot fail.
func (x *LeafIndex) Reserve(nodes, buckets, chunks int) {
	nodes = int(min(int64(nodes), MaxArenaLen/int64(x.width)))
	chunks = int(min(int64(chunks), MaxArenaLen/chunkLen))
	x.nodes, x.kids = reserve(x.nodes, nodes), reserve(x.kids, nodes*x.width)
	x.buckets = reserve(x.buckets, int(min(int64(buckets), MaxArenaLen)))
	x.next, x.pages = reserve(x.next, chunks), reserve(x.pages, (chunks+pageLen-1)>>pageBits)
}

func reserve[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s
	}
	return append(make([]T, 0, n), s...)
}

// Len returns the number of items currently indexed.
func (x *LeafIndex) Len() int { return x.size }

// Units returns the total remaining capacity across all items.
func (x *LeafIndex) Units() int { return x.units }

// pack returns the suffix word of a code: its digits from bdepth on, bits
// each, most significant first. A digit outside the index's degree matches
// no item: it packs as 0 and sets, in force, the lowest bit of its field, so
// that (suffix XOR query) | force never reads as agreeing that deep.
func (x *LeafIndex) pack(code Code) (sfx, force uint32) {
	b, w := x.bits, x.width
	for _, d := range []byte(code[x.bdepth:x.depth]) {
		sfx, force = sfx<<b, force<<b
		if int(d) < w {
			sfx |= uint32(d)
		} else if force == 0 {
			force = 1
		}
	}
	return sfx, force
}

// digit reads the code digit at depth d ≥ bdepth out of a suffix word.
func (x *LeafIndex) digit(sfx uint32, d int) int32 {
	return int32(sfx >> (x.bits * uint(x.depth-1-d)) & (1<<x.bits - 1))
}

// unpack writes a suffix word's digits into dst[bdepth:depth].
func (x *LeafIndex) unpack(sfx uint32, dst []byte) {
	for j := x.depth - 1; j >= x.bdepth; j-- {
		dst[j] = byte(sfx & (1<<x.bits - 1))
		sfx >>= x.bits
	}
}

// Insert adds an item id (a non-negative int32) with capacity 1 at the given
// leaf code, whose every digit must be below the index's degree.
func (x *LeafIndex) Insert(code Code, id int) error {
	return x.InsertCap(code, id, 1)
}

// InsertCap is Insert with an explicit remaining capacity (≥ 1): the item
// answers nearest-queries until capacity pops have consumed it.
func (x *LeafIndex) InsertCap(code Code, id, capacity int) error {
	if capacity < 1 || capacity > math.MaxInt32 {
		return fmt.Errorf("hst: item capacity %d outside [1, MaxInt32]", capacity)
	}
	if id < 0 || id > math.MaxInt32 {
		return fmt.Errorf("hst: item id %d outside [0, MaxInt32]", id)
	}
	// Validate before mutating anything: a child block is indexed by digit
	// and counts are bumped while descending. Arena overflow is checked up
	// front for the same reason.
	if err := x.checkCode(code); err != nil {
		return err
	}
	if err := x.roomFor(); err != nil {
		return err
	}
	sfx, _ := x.pack(code)
	it := item{id: int32(id), sfx: sfx}
	r, j := x.root, 0
	for ; r >= 0; j++ {
		n := &x.nodes[r]
		n.count++
		n.minID = min(n.minID, it.id)
		slot := r*int32(x.width) + int32(code[j])
		if r = x.kids[slot]; r == nilIdx {
			if j+1 < x.bdepth {
				r = x.allocNode(slot)
			} else {
				r = bucketRef(x.allocBucket(slot))
			}
			x.kids[slot] = r
		}
	}
	bi := bucketRef(r)
	// A bucket already past burstMax is there because its items share their
	// next digit, so only an item that differs can make a burst split it.
	b := &x.buckets[bi]
	burst := j < x.depth && (b.count == burstMax ||
		b.count > burstMax && x.digit(sfx, j) != x.digit(x.chunk(b.head)[0].sfx, j))
	x.push(bi, it, int32(capacity))
	if burst {
		x.burst(bi, j)
	}
	x.size++
	x.units += capacity
	return nil
}

// checkCode errs unless code is a full-depth code whose every digit is below
// the index's degree.
func (x *LeafIndex) checkCode(code Code) error {
	if len(code) != x.depth {
		return fmt.Errorf("hst: code length %d, index depth %d", len(code), x.depth)
	}
	for j := 0; j < x.depth; j++ {
		if int(code[j]) >= x.width {
			return fmt.Errorf("hst: digit %d at position %d exceeds index degree %d", code[j], j, x.width)
		}
	}
	return nil
}

// push appends an item to bucket bi, opening a new head chunk when the
// current one is full. Growth may move the slabs under a caller's pointers,
// never an item page.
func (x *LeafIndex) push(bi int32, it item, capacity int32) {
	fill := x.buckets[bi].count & (chunkLen - 1)
	if fill == 0 {
		c := x.allocChunk()
		x.next[c] = x.buckets[bi].head
		x.buckets[bi].head = c
	}
	b := &x.buckets[bi]
	x.chunk(b.head)[fill] = it
	// Always written, so a slot can never leak its previous tenant's units.
	x.setItemCap(b.head<<chunkBits|fill, capacity)
	b.count++
	b.minID = min(b.minID, it.id)
}

// burst turns bucket bi, at depth d, into an inner node over one child
// bucket per next digit, and goes on into any child still past burstMax. It
// does nothing when every item shares the next digit: the burst would split
// nothing.
func (x *LeafIndex) burst(bi int32, d int) {
	b := x.buckets[bi]
	first, split := x.digit(x.chunk(b.head)[0].sfx, d), false
	for c, n := b.head, b.fill(); c >= 0 && !split; c, n = x.next[c], chunkLen {
		for _, it := range x.chunk(c)[:n] {
			split = split || x.digit(it.sfx, d) != first
		}
	}
	if !split {
		return
	}
	ni := x.allocNode(b.up)
	x.nodes[ni].count, x.nodes[ni].minID = b.count, b.minID
	x.setRef(b.up, ni)
	blk := ni * int32(x.width)
	// Turn the chain round and hand the items on oldest first, so a child
	// holds them in the order the bucket took them in (see offerBucket).
	old := nilIdx
	for c := b.head; c >= 0; {
		c, x.next[c], old = x.next[c], old, c
	}
	for c := old; c >= 0; {
		n := int32(chunkLen)
		if c == b.head {
			n = b.fill()
		}
		ch := x.chunk(c) // a page stays put while the children grow
		for i, it := range ch[:n] {
			capacity := x.itemCap(c<<chunkBits | int32(i))
			slot := blk + x.digit(it.sfx, d)
			if x.kids[slot] == nilIdx {
				x.kids[slot] = bucketRef(x.allocBucket(slot))
			}
			x.push(bucketRef(x.kids[slot]), it, capacity)
		}
		c, old = x.next[c], c
		x.freeChunkAt(old) // read out, and free for the children to take
	}
	x.freeBucketAt(bi)
	if d+1 < x.depth {
		for s := blk; s < blk+int32(x.width); s++ { // by index: a child's burst may move kids
			if r := x.kids[s]; r < nilIdx && x.buckets[bucketRef(r)].count > burstMax {
				x.burst(bucketRef(r), d+1)
			}
		}
	}
}

// fold turns inner node ni, down to foldMin items, into one bucket. Its
// children are buckets already — an inner child would have folded first — so
// the items pass through a fixed buffer and the fold needs no chunk they did
// not just free. The merged bucket is the last child freed; the rest forward.
func (x *LeafIndex) fold(ni int32) {
	var its [foldMin]item
	var units, was [foldMin]int32
	n, m, up := 0, 0, x.nodes[ni].up
	blk := x.block(ni)
	for d, r := range blk {
		if r == nilIdx {
			continue
		}
		b := x.buckets[bucketRef(r)]
		for c, fill := b.head, b.fill(); c >= 0; fill = chunkLen {
			for i, it := range x.chunk(c)[:fill] {
				its[n], units[n] = it, x.itemCap(c<<chunkBits|int32(i))
				n++
			}
			c = x.next[c]
			x.freeChunkAt(b.head)
			b.head = c
		}
		x.freeBucketAt(bucketRef(r))
		was[m], blk[d] = bucketRef(r), nilIdx
		m++
	}
	x.freeNodeAt(ni)
	bi := x.allocBucket(up)
	x.setRef(up, bucketRef(bi))
	for _, f := range was[:m-1] {
		x.buckets[f].up = bucketRef(bi)
	}
	for i := 0; i < n; i++ {
		x.push(bi, its[i], units[i])
	}
}

// setRef points the kids slot up — the root when negative — at ref r.
func (x *LeafIndex) setRef(up, r int32) {
	if up < 0 {
		x.root = r
	} else {
		x.kids[up] = r
	}
}

// allocNode takes an inner node off the freelist, its block all nilIdx
// already, or grows the arena with one and its child block (the InsertCap
// preflight guarantees room; growth may move the slab).
func (x *LeafIndex) allocNode(up int32) int32 {
	ni := x.freeNode
	if ni != nilIdx {
		x.freeNode = x.nodes[ni].up
		x.freeNodes--
	} else {
		ni = int32(len(x.nodes))
		x.nodes = append(x.nodes, inner{})
		for i := 0; i < x.width; i++ {
			x.kids = append(x.kids, nilIdx)
		}
	}
	x.nodes[ni] = inner{minID: noItem32, up: up}
	return ni
}

// freeNodeAt returns an inner node whose block is all nilIdx to the freelist.
func (x *LeafIndex) freeNodeAt(ni int32) {
	x.nodes[ni] = inner{minID: noItem32, up: x.freeNode}
	x.freeNode = ni
	x.freeNodes++
}

// allocBucket takes an empty bucket off the freelist or grows the arena.
func (x *LeafIndex) allocBucket(up int32) int32 {
	bi := x.freeBucket
	if bi != nilIdx {
		x.freeBucket = x.buckets[bi].head
	} else {
		bi = int32(len(x.buckets))
		x.buckets = append(x.buckets, bucket{})
	}
	x.buckets[bi] = bucket{minID: noItem32, head: nilIdx, up: up}
	return bi
}

func (x *LeafIndex) freeBucketAt(bi int32) {
	x.buckets[bi] = bucket{minID: noItem32, head: x.freeBucket, up: nilIdx}
	x.freeBucket = bi
}

// allocChunk takes an item chunk off the freelist or opens the next one,
// adding an item page (and a capacity page beside it) when the last is full.
func (x *LeafIndex) allocChunk() int32 {
	if c := x.freeChunk; c != nilIdx {
		x.freeChunk = x.next[c]
		x.freeChunks--
		return c
	}
	c := int32(len(x.next))
	if int(c)>>pageBits == len(x.pages) {
		x.pages = append(x.pages, make([]chunk, pageLen))
		if x.caps != nil {
			x.caps = append(x.caps, make([][chunkLen]int32, pageLen))
		}
	}
	x.next = append(x.next, nilIdx)
	return c
}

func (x *LeafIndex) freeChunkAt(c int32) {
	x.next[c] = x.freeChunk
	x.freeChunk = c
	x.freeChunks++
}

// itemCap resolves an item slot's remaining capacity: 1 while the side
// arena is unallocated.
func (x *LeafIndex) itemCap(s int32) int32 {
	if x.caps == nil {
		return 1
	}
	return *x.capOf(s) + 1
}

// setItemCap records an item slot's remaining capacity, allocating the side
// arena — a zeroed page, one unit a slot, for every item page — the first
// time any item holds more than one unit.
func (x *LeafIndex) setItemCap(s, c int32) {
	if x.caps == nil {
		if c <= 1 {
			return
		}
		x.caps = make([][][chunkLen]int32, len(x.pages), cap(x.pages))
		for p := range x.caps {
			x.caps[p] = make([][chunkLen]int32, pageLen)
		}
	}
	*x.capOf(s) = c - 1
}

// find walks code's exact branch down to its bucket and looks the (id, leaf)
// pair up in it, leaving the inner nodes passed in path. ok is false when
// the pair is not live.
func (x *LeafIndex) find(code Code, id int) (path []int32, bi, s int32, ok bool) {
	if len(code) != x.depth || id < 0 || id > math.MaxInt32 {
		return nil, 0, 0, false
	}
	path, r := x.descend(code)
	sfx, force := x.pack(code)
	if r == nilIdx || force != 0 {
		return nil, 0, 0, false
	}
	bi, s = bucketRef(r), x.slotIn(bucketRef(r), int32(id), sfx, false)
	return path, bi, s, s >= 0
}

// Remove deletes one occurrence of id at the given leaf code — the whole
// item, whatever capacity it has left — and reports whether it was present.
func (x *LeafIndex) Remove(code Code, id int) bool {
	_, ok := x.RemoveUnits(code, id)
	return ok
}

// RemoveUnits is Remove reporting how many capacity units the removed item
// still carried — the ground truth a caller relocating a live item needs,
// since pops may have consumed units its own accounting has not seen yet.
func (x *LeafIndex) RemoveUnits(code Code, id int) (units int, ok bool) {
	path, bi, s, ok := x.find(code, id)
	if !ok {
		return 0, false
	}
	units = int(x.itemCap(s))
	x.units -= units
	x.removeAt(path, bi, s)
	return units, true
}

// consumeAt takes one capacity unit from the item in slot s of bucket bi,
// removing the item when its last unit goes.
func (x *LeafIndex) consumeAt(path []int32, bi, s int32) {
	x.units--
	if x.itemCap(s) > 1 {
		*x.capOf(s)--
		return
	}
	x.removeAt(path, bi, s)
}

// removeAt takes the item in slot s out of bucket bi — the bucket's newest
// item moves into its place — and repairs the way up, path being the inner
// nodes from the root down to the bucket's parent: counts drop, an emptied
// bucket or node is unlinked and freed, an inner node at foldMin folds, and
// a subtree minimum is recomputed only where the removed id was it.
func (x *LeafIndex) removeAt(path []int32, bi, s int32) {
	b := &x.buckets[bi]
	at := x.item(s)
	id := at.id
	last := b.head<<chunkBits | (b.fill() - 1)
	*at = *x.item(last)
	if x.caps != nil {
		*x.capOf(s) = *x.capOf(last)
	}
	b.count--
	x.size--
	if b.count&(chunkLen-1) == 0 {
		c := b.head
		b.head = x.next[c]
		x.freeChunkAt(c)
	}
	switch {
	case b.count == 0 && b.up >= 0:
		x.kids[b.up] = nilIdx
		x.freeBucketAt(bi)
	case b.minID == id:
		m := noItem32
		for c, n := b.head, b.fill(); c >= 0; c, n = x.next[c], chunkLen {
			for _, it := range x.chunk(c)[:n] {
				m = min(m, it.id)
			}
		}
		b.minID = m
	}
	for d := len(path) - 1; d >= 0; d-- {
		ni := path[d]
		n := &x.nodes[ni]
		n.count--
		switch {
		case n.count == 0 && n.up >= 0:
			x.kids[n.up] = nilIdx
			x.freeNodeAt(ni)
		case n.count <= foldMin && d >= x.bdepth:
			x.fold(ni)
		case n.minID == id:
			m := noItem32
			for _, r := range x.block(ni) {
				if r != nilIdx {
					m = min(m, x.minOf(r))
				}
			}
			n.minID = m
		}
	}
}

// minOf reads a ref's subtree minimum.
func (x *LeafIndex) minOf(r int32) int32 {
	if r >= 0 {
		return x.nodes[r].minID
	}
	return x.buckets[bucketRef(r)].minID
}

// ErrNoItem is AddCap's refusal when the (code, id) item is not live; a
// caller restoring a fully consumed (hence removed) item answers InsertCap.
var ErrNoItem = errors.New("hst: no such item")

// ErrUnitsOverflow is AddCap's refusal when the item is live but the sum
// would pass InsertCap's int32 range: the item keeps what it has.
var ErrUnitsOverflow = errors.New("hst: item capacity would exceed the index's int32 range")

// AddCap returns delta (≥ 1) capacity units to the live item id at the
// given leaf code. A refusal says which kind it was — ErrNoItem or
// ErrUnitsOverflow — and mutates nothing.
func (x *LeafIndex) AddCap(code Code, id, delta int) error {
	if delta < 1 {
		return fmt.Errorf("hst: capacity delta must be positive, got %d", delta)
	}
	_, _, s, ok := x.find(code, id)
	if !ok {
		return ErrNoItem
	}
	sum := int64(x.itemCap(s)) + int64(delta)
	if sum > math.MaxInt32 {
		return ErrUnitsOverflow
	}
	x.setItemCap(s, int32(sum))
	x.units += delta
	return nil
}

// MoveCap moves the live item id from leaf code from to leaf code to and
// gives it extra (≥ 0) more capacity units, answering the units it carried
// before: RemoveUnits then InsertCap of units+extra, in one call. It is
// all-or-nothing — ErrNoItem (not live at from), ErrUnitsOverflow (past
// InsertCap's int32 range), a malformed to and ErrIndexFull are all decided
// before anything mutates, and leave the item where it was. When to descends
// into the item's own bucket and the item may stay there (the bucket is
// within burstMax, or to keeps the digit its items share at the bucket's
// depth), the item's suffix and units are rewritten in its slot: the id,
// counts and minima do not change, and nothing bursts or folds.
func (x *LeafIndex) MoveCap(from, to Code, id, extra int) (units int, err error) {
	if extra < 0 {
		return 0, fmt.Errorf("hst: capacity delta must be non-negative, got %d", extra)
	}
	if err := x.checkCode(to); err != nil {
		return 0, err
	}
	path, bi, s, ok := x.find(from, id)
	if !ok {
		return 0, ErrNoItem
	}
	units = int(x.itemCap(s))
	if int64(units)+int64(extra) > math.MaxInt32 {
		return 0, ErrUnitsOverflow
	}
	sfx, _ := x.pack(to)
	at, j := x.item(s), len(path)
	if to[:j] == from[:j] && (j == x.depth || x.buckets[bi].count <= burstMax || x.digit(sfx, j) == x.digit(at.sfx, j)) {
		at.sfx = sfx
		x.setItemCap(s, int32(units+extra))
		x.units += extra
		return units, nil
	}
	if err := x.roomFor(); err != nil {
		return 0, err
	}
	x.units -= units
	x.removeAt(path, bi, s)
	return units, x.InsertCap(to, id, units+extra) // checked above: cannot fail
}

// Consume takes one capacity unit from the item id at the given leaf code,
// removing the item when its last unit goes, and reports whether the item
// was present. It is the code-addressed commit for a candidate resolved with
// ResolveRef; same-index callers commit through ConsumeRef instead.
func (x *LeafIndex) Consume(code Code, id int) bool {
	path, bi, s, ok := x.find(code, id)
	if ok {
		x.consumeAt(path, bi, s)
	}
	return ok
}

// descend follows code's exact branch from the root for as long as it
// exists. It returns the inner nodes passed, in x.path, and the bucket the
// branch ended in, or nilIdx when the last inner node has no child for it.
func (x *LeafIndex) descend(code Code) (path []int32, r int32) {
	path, r = x.path[:0], x.root
	for j := 0; r >= 0; j++ {
		path = append(path, r)
		if int(code[j]) >= x.width {
			return path, nilIdx
		}
		r = x.kids[int(r)*x.width+int(code[j])]
	}
	return path, r
}

// nearest finds the item a pop for code would take: the smallest id among
// the items sharing the deepest prefix with it. Where code's branch ends in a
// bucket, it scans the bucket for the best (level, id). Where it ends at an
// inner node with no child for the next digit, every item below is at that
// node's level, the minimum possible, and it follows the subtree minimum
// down — unless the level is past maxLevel, when it stops there. path is the
// inner nodes above the item's bucket.
func (x *LeafIndex) nearest(code Code, maxLevel int) (path []int32, bi, s int32, lvl int) {
	path, r := x.descend(code)
	matched := len(path)
	if r == nilIdx {
		matched--
		if lvl = x.depth - matched; lvl <= maxLevel {
			path, bi, s = x.minUnder(path[:matched], path[matched])
		}
	} else {
		bi = bucketRef(r)
		s, lvl = x.scan(bi, code)
	}
	return path, bi, s, lvl
}

// scan returns the slot of the item of bucket bi nearest to code — deepest
// common suffix, then smallest id — and its level: one branch-free minimum
// over (level, id), the level read off the bit length of suffix XOR query.
func (x *LeafIndex) scan(bi int32, code Code) (s int32, lvl int) {
	q, force := x.pack(code)
	b, pages, next, lvls := &x.buckets[bi], x.pages, x.next, &x.lvl
	best := uint64(math.MaxUint64)
	for c, n := b.head, b.fill(); c >= 0; c, n = next[c], chunkLen {
		lo := c << chunkBits // outside the loop, so the minimum compiles to conditional moves
		for i, it := range pages[uint32(c)>>pageBits][c&(pageLen-1)][:n] {
			if key := uint64(lvls[bits.Len32(it.sfx^q|force)])<<32 | uint64(it.id); key < best {
				best, s = key, lo+int32(i)
			}
		}
	}
	return s, int(best >> 32)
}

// minUnder extends path — the inner nodes above ref r — down to the bucket
// holding r's subtree minimum, and returns the bucket and the slot of the
// minimum in it. A live subtree always contains its own minID: at each node
// it takes the first child, in digit order, that carries it.
func (x *LeafIndex) minUnder(path []int32, r int32) ([]int32, int32, int32) {
	target := x.minOf(r)
	for r >= 0 {
		path = append(path, r)
		for _, c := range x.block(r) {
			if c != nilIdx && x.minOf(c) == target {
				r = c
				break
			}
		}
	}
	return path, bucketRef(r), x.slotIn(bucketRef(r), target, 0, true)
}

// slotIn returns the slot of id's item in bucket bi: the one with suffix
// sfx or, with any set, the one with the smallest suffix (the smallest leaf
// code, when an id sits on several leaves); negative when there is none.
func (x *LeafIndex) slotIn(bi, id int32, sfx uint32, any bool) int32 {
	b, s := &x.buckets[bi], nilIdx
	for c, n := b.head, b.fill(); c >= 0; c, n = x.next[c], chunkLen {
		for i, it := range x.chunk(c)[:n] {
			if it.id == id && (it.sfx == sfx || any && (s < 0 || it.sfx < sfx)) {
				if s, sfx = c<<chunkBits|int32(i), it.sfx; !any {
					return s
				}
			}
		}
	}
	return s
}

// Nearest returns the smallest-id item whose code has the deepest common
// prefix with the query code, along with the resulting LCA level (0 when
// the item sits on the query leaf itself). ok is false when the index is
// empty or the code is malformed.
func (x *LeafIndex) Nearest(code Code) (id, lcaLevel int, ok bool) {
	if x.size == 0 || len(code) != x.depth {
		return 0, 0, false
	}
	_, _, s, lvl := x.nearest(code, x.depth)
	return int(x.item(s).id), lvl, true
}

// CountPrefix returns the number of live items whose code starts with the
// given prefix — the occupancy of the complete-tree node it identifies.
func (x *LeafIndex) CountPrefix(prefix Code) int {
	if len(prefix) > x.depth {
		return 0
	}
	r, j := x.root, 0
	for ; r >= 0 && j < len(prefix); j++ {
		if int(prefix[j]) >= x.width {
			return 0
		}
		r = x.kids[int(r)*x.width+int(prefix[j])]
	}
	switch {
	case r == nilIdx:
		return 0
	case r >= 0:
		return int(x.nodes[r].count)
	case j == len(prefix):
		return int(x.buckets[bucketRef(r)].count)
	}
	// The prefix runs on into a bucket: count the suffixes that carry the rest.
	var want, mask uint32
	for ; j < len(prefix); j++ {
		if int(prefix[j]) >= x.width {
			return 0
		}
		shift := x.bits * uint(x.depth-1-j)
		want |= uint32(prefix[j]) << shift
		mask |= (1<<x.bits - 1) << shift
	}
	b, n := &x.buckets[bucketRef(r)], 0
	for c, fill := b.head, b.fill(); c >= 0; c, fill = x.next[c], chunkLen {
		for _, it := range x.chunk(c)[:fill] {
			if it.sfx&mask == want {
				n++
			}
		}
	}
	return n
}

// PopNearest atomically finds and removes the item Nearest would return:
// the smallest-id item with the deepest common code prefix with the query.
// Unlike Nearest+Remove it needs no external code table.
func (x *LeafIndex) PopNearest(code Code) (id, lcaLevel int, ok bool) {
	return x.PopNearestWithin(code, x.depth)
}

// PopNearestWithin is PopNearest restricted to candidates whose LCA with
// the query sits at level ≤ maxLevel: when even the nearest item is farther,
// nothing is removed and ok is false (lcaLevel still reports its level). A
// cluster node pops with it at the level its coordinator allows.
func (x *LeafIndex) PopNearestWithin(code Code, maxLevel int) (id, lcaLevel int, ok bool) {
	if x.size == 0 || len(code) != x.depth {
		return 0, 0, false
	}
	path, bi, s, lvl := x.nearest(code, maxLevel)
	if lvl > maxLevel {
		return 0, lvl, false
	}
	id = int(x.item(s).id)
	x.consumeAt(path, bi, s)
	return id, lvl, true
}

// Walk visits every indexed item (code, id). Order is unspecified.
func (x *LeafIndex) Walk(fn func(code Code, id int)) {
	x.WalkCap(func(code Code, id, _ int) { fn(code, id) })
}

// WalkCap visits every indexed item (code, id, remaining capacity). Order
// is unspecified.
func (x *LeafIndex) WalkCap(fn func(code Code, id, capacity int)) {
	x.walk(x.root, make([]byte, x.depth), 0, fn)
}

func (x *LeafIndex) walk(r int32, code []byte, j int, fn func(code Code, id, capacity int)) {
	if r >= 0 {
		for d, c := range x.block(r) {
			if c != nilIdx {
				code[j] = byte(d)
				x.walk(c, code, j+1, fn)
			}
		}
		return
	}
	b := &x.buckets[bucketRef(r)]
	for c, n := b.head, b.fill(); c >= 0; c, n = x.next[c], chunkLen {
		for i, it := range x.chunk(c)[:n] {
			x.unpack(it.sfx, code)
			fn(Code(code), int(it.id), int(x.itemCap(c<<chunkBits|int32(i))))
		}
	}
}

// Candidate is one live item in code-addressed form: everything an
// assignment decision taken away from this index (a cluster coordinator
// solving a window over several nodes' tries) needs to rank the item and
// later commit through Consume. ResolveRef turns a mined ref into one.
type Candidate struct {
	ID    int  // item id
	Code  Code // the item's leaf code (for the Consume commit)
	Level int  // LCA level with the query code
	Cap   int  // remaining capacity units
}
