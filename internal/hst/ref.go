package hst

import (
	"math"
	"math/bits"
	"slices"
)

// CandidateRef is a live item addressed by arena position instead of leaf
// code: no string ever materialises, which keeps high-rate candidate
// mining allocation-free. A ref is only meaningful against the index that
// produced it, and only until that index next takes an insert — the engine
// mines and commits a batch window under one lock hold, which is exactly
// that envelope. ResolveRef turns a ref into a code-addressed Candidate
// for a decision that leaves the process.
type CandidateRef struct {
	ID    int32  // item id
	Node  int32  // the item's bucket in the index arena (for the ConsumeRef commit)
	Level int32  // LCA level with the query code
	Cap   int32  // remaining capacity units
	Sfx   uint32 // the item's packed suffix: with ID it finds the item in its bucket
}

// NearestKRef appends to out the (up to) k nearest items to the query code
// in tree distance — ascending LCA level, smallest id first within a level
// — without removing anything and without materialising a single code
// string. Policies inspect the candidates and commit chosen assignments
// with ConsumeRef. It descends the query's exact branch as deep as it goes
// and, when that ends in a bucket, offers the bucket's items at the level
// each one's suffix shares with the query; then it climbs back towards the
// root, gathering at each inner node the items under it but not under the
// already-visited child — exactly the items whose LCA with the query is at
// that node's level. Ties between equal ids (the same id inserted at several
// leaves) break by leaf code; engine populations key workers by unique id.
func (x *LeafIndex) NearestKRef(code Code, k int, out []CandidateRef) []CandidateRef {
	if x.size == 0 || len(code) != x.depth || k <= 0 {
		return out
	}
	path, r := x.descend(code)
	base := len(out)
	if r < nilIdx {
		q, force := x.pack(code)
		out = x.offerBucket(out, base, k, bucketRef(r), -1, q, force)
	}
	// r is now the child already accounted for, nilIdx when there is none.
	for d := len(path) - 1; d >= 0 && len(out)-base < k; d-- {
		out = x.collect(path[d], r, d, int32(x.depth-d), k-(len(out)-base), len(out), out)
		r = path[d]
	}
	return out
}

// SmallestKRef appends to out the (up to) k smallest-id items of the whole
// index, stamped with the given LCA level (ties between equal ids break by
// leaf code). The engine's batch policy uses it to pad a task's candidate
// pool from foreign shards, where every worker sits at the maximal level
// and only the id order matters.
func (x *LeafIndex) SmallestKRef(k, level int, out []CandidateRef) []CandidateRef {
	if x.size == 0 || k <= 0 {
		return out
	}
	return x.collect(x.root, nilIdx, 0, int32(level), k, len(out), out)
}

// slotOfRef finds a mined ref's item: its bucket — the one the ref names, or
// the one the folds since the mine merged that into — and its slot there.
// ok is false when no live item carries the ref's id and suffix.
func (x *LeafIndex) slotOfRef(ref CandidateRef) (bi, s int32, ok bool) {
	bi = ref.Node
	if bi < 0 || int(bi) >= len(x.buckets) {
		return 0, 0, false
	}
	for x.buckets[bi].count == 0 && x.buckets[bi].up < nilIdx {
		bi = bucketRef(x.buckets[bi].up)
	}
	s = x.slotIn(bi, ref.ID, ref.Sfx, false)
	return bi, s, s >= 0
}

// ConsumeRef is Consume through a CandidateRef: it takes one capacity unit
// from the ref's item, removing the item when its last unit goes, and
// reports whether the item was present. The ref must come from this index
// with nothing but ConsumeRef calls since the mine — a removal can empty or
// fold buckets, which a ref follows, but an insert can burst or reuse them;
// a stale or foreign ref returns false or lands on whatever item of that id
// and suffix the bucket now holds, so callers own that exclusion — the
// engine holds every shard lock from mine to commit.
func (x *LeafIndex) ConsumeRef(ref CandidateRef) bool {
	bi, s, ok := x.slotOfRef(ref)
	if !ok {
		return false
	}
	// The root-anchored path comes off the up links; the rest is Consume's.
	path := x.path[:0]
	for up := x.buckets[bi].up; up >= 0; up = x.nodes[path[len(path)-1]].up {
		path = append(path, up/int32(x.width))
	}
	slices.Reverse(path)
	x.consumeAt(path, bi, s)
	return true
}

// ResolveRef turns a ref mined from this index into its code-addressed
// Candidate, reading the leaf code off the up links and the ref's suffix.
// Like every ref consumer it expects no insert since the mine; ok is false
// when the ref does not address a live item of this arena.
func (x *LeafIndex) ResolveRef(ref CandidateRef) (c Candidate, ok bool) {
	bi, _, ok := x.slotOfRef(ref)
	if !ok {
		return Candidate{}, false
	}
	x.codeOf(bi, ref.Sfx, x.cbuf)
	return Candidate{ID: int(ref.ID), Code: Code(x.cbuf), Level: int(ref.Level), Cap: int(ref.Cap)}, true
}

// codeOf writes into dst[:depth] the leaf code of an item of bucket bi: the
// digits of the bucket's path, read leaf to root off the up links into dst's
// tail and moved to the front, then the item's own suffix over the positions
// from bdepth on (where the two overlap they agree).
func (x *LeafIndex) codeOf(bi int32, sfx uint32, dst []byte) {
	w, d := int32(x.width), 0
	for up := x.buckets[bi].up; up >= 0; d++ {
		ni := up / w
		dst[x.depth-1-d] = byte(up - ni*w)
		up = x.nodes[ni].up
	}
	copy(dst, dst[x.depth-d:x.depth])
	x.unpack(sfx, dst)
}

// collect walks the subtree under ref r, at depth d — except the except
// branch — keeping in out[start:] only the need smallest items by (id, leaf
// code), in sorted order, all stamped lvl. The per-subtree minima turn the
// walk into a branch-and-bound search: children are visited in ascending
// (minID, digit) order and a subtree is entered only while its minimum can
// still beat the buffer's current worst id. The prune is on strictly-greater
// ids only (an equal minID may still win its leaf-code tie-break), so the
// selection is exactly the unpruned walk's.
func (x *LeafIndex) collect(r, except int32, d int, lvl int32, need, start int, out []CandidateRef) []CandidateRef {
	if r == except || len(out)-start >= need && x.minOf(r) > out[len(out)-1].ID {
		return out
	}
	if r < nilIdx {
		return x.offerBucket(out, start, need, bucketRef(r), lvl, 0, 0)
	}
	// Sort the live children once, as minID<<8 | digit, in this depth's
	// stretch of the scratch (a child's walk uses the next one).
	if x.kbuf == nil {
		x.kbuf = make([]uint64, max(1, x.depth)*x.width)
	}
	blk := x.block(r)
	keys := x.kbuf[d*x.width : d*x.width : (d+1)*x.width]
	for digit, c := range blk {
		if c != nilIdx && c != except {
			keys = append(keys, uint64(x.minOf(c))<<8|uint64(digit))
		}
	}
	slices.Sort(keys)
	for _, key := range keys {
		if len(out)-start >= need && int32(key>>8) > out[len(out)-1].ID {
			break // every unvisited sibling's minimum is at least this one
		}
		out = x.collect(blk[key&0xff], except, d+1, lvl, need, start, out)
	}
	return out
}

// offerBucket offers the items of bucket bi to out[start:], a buffer of the
// need smallest items seen so far sorted by (level, id, leaf code): at level
// lvl or, when that is negative, each at the level its suffix shares with
// the query suffix q. It reads the chain oldest chunk first, a stretch of
// links at a time — a loaded population's ids ascend with age, and the buffer
// turns an ascending run away at one compare an item where a descending one
// would shift it every time.
func (x *LeafIndex) offerBucket(out []CandidateRef, start, need int, bi, lvl int32, q, force uint32) []CandidateRef {
	b, items, lvls := &x.buckets[bi], x.items, &x.lvl
	worst := uint64(math.MaxUint64) // the buffer's last key, once it is full
	if len(out)-start >= need {
		worst = refKey(&out[len(out)-1])
	}
	var chain [16]int32
	for c := b.head; c >= 0; {
		n := 0
		for ; c >= 0 && n < len(chain); c = x.next[c] {
			chain[n] = c
			n++
		}
		for n--; n >= 0; n-- {
			lo, fill := chain[n]*chunkLen, int32(chunkLen)
			if chain[n] == b.head {
				fill = b.fill()
			}
			for i, it := range items[lo : lo+fill] {
				l := lvl
				if l < 0 {
					l = int32(lvls[bits.Len32(it.sfx^q|force)])
				}
				key := uint64(l)<<32 | uint64(it.id)
				if key > worst {
					continue
				}
				cand := CandidateRef{ID: it.id, Node: bi, Level: l, Cap: x.itemCap(lo + int32(i)), Sfx: it.sfx}
				if key == worst && !x.leafBefore(cand, out[len(out)-1]) {
					continue
				}
				if len(out)-start < need {
					out = append(out, cand)
				}
				pos := len(out) - 1 // the slot just opened, or the worst entry's, which cand evicts
				for ; pos > start; pos-- {
					if p := refKey(&out[pos-1]); p < key || p == key && !x.leafBefore(cand, out[pos-1]) {
						break
					}
					out[pos] = out[pos-1]
				}
				out[pos] = cand
				if len(out)-start >= need {
					worst = refKey(&out[len(out)-1])
				}
			}
		}
	}
	return out
}

func refKey(c *CandidateRef) uint64 { return uint64(c.Level)<<32 | uint64(c.ID) }

// leafBefore orders two refs of one id by leaf code. No engine population
// holds such a pair, so spelling both codes out is off every serving path.
func (x *LeafIndex) leafBefore(a, b CandidateRef) bool {
	ca, cb := make([]byte, x.depth), make([]byte, x.depth)
	x.codeOf(a.Node, a.Sfx, ca)
	x.codeOf(b.Node, b.Sfx, cb)
	return string(ca) < string(cb)
}
