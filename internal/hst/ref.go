package hst

// CandidateRef is a live item addressed by arena position instead of leaf
// code: no string ever materialises, which keeps high-rate candidate
// mining allocation-free. A ref is only meaningful against the index that
// produced it, and only until that index is next mutated — the engine
// mines and commits a batch window under one lock hold, which is exactly
// that envelope. ResolveRef turns a ref into a code-addressed Candidate
// for a decision that leaves the process.
type CandidateRef struct {
	ID    int32 // item id
	Node  int32 // leaf node in the index arena (for the ConsumeRef commit)
	Level int32 // LCA level with the query code
	Cap   int32 // remaining capacity units
}

// NearestKRef appends to out the (up to) k nearest items to the query code
// in tree distance — ascending LCA level, smallest id first within a level
// — without removing anything and without materialising a single code
// string. Policies inspect the candidates and commit chosen assignments
// with ConsumeRef. It descends the query's exact branch as deep as it goes,
// then climbs back towards the root, gathering at each step the items under
// the current ancestor but not under the already-visited child branch —
// exactly the items whose LCA with the query is at that ancestor's level —
// through a keep-k-smallest buffer. Ties between equal ids (the same id
// inserted at several leaves) break by arena position, which is
// deterministic for a frozen index; engine populations key workers by
// unique id.
func (x *LeafIndex) NearestKRef(code Code, k int, out []CandidateRef) []CandidateRef {
	if x.size == 0 || len(code) != x.depth || k <= 0 {
		return out
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
	base := len(out)
	for i := j; i >= 0; i-- {
		lvl := x.depth - i
		except := nilIdx
		if i < j {
			except = path[i+1]
		}
		out = x.collectKRef(path[i], except, lvl, k-(len(out)-base), len(out), out)
		if len(out)-base >= k {
			out = out[:base+k]
			break
		}
	}
	return out
}

// SmallestKRef appends to out the (up to) k smallest-id items of the whole
// index, stamped with the given LCA level (ties between equal ids break by
// arena position). The engine's batch policy uses it to pad a task's
// candidate pool from foreign shards, where every worker sits at the
// maximal level and only the id order matters.
func (x *LeafIndex) SmallestKRef(k, level int, out []CandidateRef) []CandidateRef {
	if x.size == 0 || k <= 0 {
		return out
	}
	return x.collectKRef(0, nilIdx, level, k, len(out), out)
}

// ConsumeRef is Consume through a CandidateRef: it takes one capacity unit
// from the item id at the ref's leaf node, removing the item when its last
// unit goes, and reports whether the item was present. The ref must come
// from this index with no intervening mutation (mutations may move or free
// arena nodes); a stale or foreign ref returns false or lands on whatever
// leaf now occupies the slot, so callers own that exclusion — the engine
// holds every shard lock from mine to commit.
func (x *LeafIndex) ConsumeRef(ref CandidateRef) bool {
	ni := ref.Node
	if ni < 0 || int(ni) >= len(x.nodes) || ref.ID < 0 {
		return false
	}
	removed, ok := x.consumeItem(ni, ref.ID)
	if !ok {
		return false
	}
	if removed {
		// Rebuild the root-anchored path through the parent links, then
		// repair counts and minima exactly as a code-addressed removal.
		path := x.path[:0]
		for p := ni; p != nilIdx; p = x.nodes[p].parent {
			path = append(path, p)
		}
		for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
			path[a], path[b] = path[b], path[a]
		}
		x.repair(path, ref.ID)
		x.size--
	}
	return true
}

// ResolveRef turns a ref mined from this index into its code-addressed
// Candidate, reading the leaf code off the parent links in O(depth). Like
// every ref consumer it expects no mutation since the mine; ok is false
// when the ref does not address a leaf-depth node of this arena.
func (x *LeafIndex) ResolveRef(ref CandidateRef) (c Candidate, ok bool) {
	ni := ref.Node
	for j := x.depth - 1; j >= 0; j-- {
		if ni <= 0 || int(ni) >= len(x.nodes) {
			return Candidate{}, false
		}
		x.cbuf[j] = x.digits[ni]
		ni = x.nodes[ni].parent
	}
	if ni != 0 {
		return Candidate{}, false
	}
	return Candidate{ID: int(ref.ID), Code: Code(x.cbuf), Level: int(ref.Level), Cap: int(ref.Cap)}, true
}

// collectKRef walks the subtree under ni — except the except branch —
// keeping in out[start:] only the need smallest items by (id, node), in
// sorted order. The per-node subtree minima turn the walk into a
// branch-and-bound search: children are visited in ascending (minID, index) order and a
// subtree is entered only while its minimum can still beat the buffer's
// current worst id, so the buffer fills with the true smallest ids first
// and then prunes the remaining siblings wholesale — a root-level segment
// over a shard of m items costs O(k·D·degree) comparisons, not O(m).
// The prune is on strictly-greater ids only (an equal minID may still win
// its (id, node) tie-break), so the selection is exactly the unpruned
// walk's.
func (x *LeafIndex) collectKRef(ni, except int32, lvl, need, start int, out []CandidateRef) []CandidateRef {
	if ni == except || need <= 0 {
		return out
	}
	seg := out[start:]
	if len(seg) >= need && x.nodes[ni].minID > seg[len(seg)-1].ID {
		return out
	}
	if int(x.nodes[ni].count) <= need-len(seg) {
		// The whole subtree fits the remaining buffer space: every item
		// enters, so ordering the descent cannot prune anything.
		return x.collectAllRef(ni, except, lvl, need, start, out)
	}
	n := x.nodes[ni]
	for si := n.items; si != nilIdx; si = x.items[si].next {
		out = offerKRef(out, start, need, x.items[si].id, ni, x.itemCap(si), lvl)
	}
	// Gather the live children once into stack buffers sorted by
	// (minID, index); denseDegreeLimit bounds a block's fan-out, and the
	// list form reuses the same buffers chunk by chunk.
	var cbuf, mbuf [denseDegreeLimit]int32
	if n.kids <= blkTag {
		m := 0
		for _, ci := range x.block(n.kids) {
			if ci != nilIdx && ci != except {
				cbuf[m], mbuf[m] = ci, x.nodes[ci].minID
				m++
			}
		}
		sortKidsByMin(&cbuf, &mbuf, m)
		for i := 0; i < m; i++ {
			if seg := out[start:]; len(seg) >= need && mbuf[i] > seg[len(seg)-1].ID {
				break // every unvisited sibling's minimum is ≥ mbuf[i]
			}
			out = x.collectKRef(cbuf[i], except, lvl, need, start, out)
		}
		return out
	}
	// A sibling list of an index that never promotes has no degree bound:
	// process the children in chunks, each chunk sorted and bound-checked
	// like a dense block. A chunk boundary only weakens the visit order,
	// never the selection — the offer buffer keeps the exact k smallest
	// whatever order items arrive in.
	for ci := n.kids; ci != nilIdx; {
		m := 0
		for ; ci != nilIdx && m < denseDegreeLimit; ci = x.sibs[ci] {
			if ci != except {
				cbuf[m], mbuf[m] = ci, x.nodes[ci].minID
				m++
			}
		}
		sortKidsByMin(&cbuf, &mbuf, m)
		for i := 0; i < m; i++ {
			if seg := out[start:]; len(seg) >= need && mbuf[i] > seg[len(seg)-1].ID {
				break
			}
			out = x.collectKRef(cbuf[i], except, lvl, need, start, out)
		}
	}
	return out
}

// sortKidsByMin insertion-sorts the first m gathered children by
// (minID, node index). m is at most denseDegreeLimit and typically tiny.
func sortKidsByMin(cbuf, mbuf *[denseDegreeLimit]int32, m int) {
	for i := 1; i < m; i++ {
		ci, mi := cbuf[i], mbuf[i]
		j := i
		for j > 0 && (mbuf[j-1] > mi || (mbuf[j-1] == mi && cbuf[j-1] > ci)) {
			cbuf[j], mbuf[j] = cbuf[j-1], mbuf[j-1]
			j--
		}
		cbuf[j], mbuf[j] = ci, mi
	}
}

// collectAllRef is collectKRef's unordered tail: the caller established
// that the subtree's whole population fits the buffer, so it walks in
// plain digit order with no per-child bookkeeping.
func (x *LeafIndex) collectAllRef(ni, except int32, lvl, need, start int, out []CandidateRef) []CandidateRef {
	if ni == except {
		return out
	}
	n := x.nodes[ni]
	for si := n.items; si != nilIdx; si = x.items[si].next {
		out = offerKRef(out, start, need, x.items[si].id, ni, x.itemCap(si), lvl)
	}
	if n.kids <= blkTag {
		for _, ci := range x.block(n.kids) {
			if ci != nilIdx {
				out = x.collectAllRef(ci, except, lvl, need, start, out)
			}
		}
	} else {
		for ci := n.kids; ci != nilIdx; ci = x.sibs[ci] {
			out = x.collectAllRef(ci, except, lvl, need, start, out)
		}
	}
	return out
}

// offerKRef inserts one item into the bounded sorted buffer out[start:] if
// it ranks among the need smallest seen so far.
func offerKRef(out []CandidateRef, start, need int, id, ni, capacity int32, lvl int) []CandidateRef {
	seg := out[start:]
	full := len(seg) >= need
	if full && !beforeRef(id, ni, seg[len(seg)-1]) {
		return out
	}
	pos := len(seg)
	for pos > 0 && beforeRef(id, ni, seg[pos-1]) {
		pos--
	}
	c := CandidateRef{ID: id, Node: ni, Level: int32(lvl), Cap: capacity}
	if full {
		copy(seg[pos+1:], seg[pos:len(seg)-1])
		seg[pos] = c
		return out
	}
	out = append(out, CandidateRef{})
	seg = out[start:]
	copy(seg[pos+1:], seg[pos:len(seg)-1])
	seg[pos] = c
	return out
}

// beforeRef reports whether (id, ni) orders strictly before c by
// (id, node).
func beforeRef(id, ni int32, c CandidateRef) bool {
	if id != c.ID {
		return id < c.ID
	}
	return ni < c.Node
}
