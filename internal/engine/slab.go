package engine

// This file holds the two index-addressed tables behind the batch window's
// hot loop. Both replace a Go map whose keys were already small integers:
// the window path looks one of them up per candidate and the other per
// solver column, which at k = 8 is thousands of probes per window.

// warmPageBits sizes a warm-potential page: 4,096 potentials (32 KiB).
const (
	warmPageBits = 12
	warmPageLen  = 1 << warmPageBits
)

// warmSlab stores one solver potential per worker id, addressed by the id
// itself. Pages are allocated the first time a potential is banked into
// them, so memory follows the workers windows have actually touched; an
// absent page — like an id never banked inside a present one — reads 0,
// exactly what the solver seeds an unknown worker with.
type warmSlab struct {
	pages []*[warmPageLen]float64
}

func (w *warmSlab) get(id int32) float64 {
	pg := uint32(id) >> warmPageBits
	if int(pg) >= len(w.pages) || w.pages[pg] == nil {
		return 0
	}
	return w.pages[pg][uint32(id)&(warmPageLen-1)]
}

func (w *warmSlab) set(id int32, pot float64) {
	pg := uint32(id) >> warmPageBits
	if int(pg) >= len(w.pages) {
		w.pages = append(w.pages, make([]*[warmPageLen]float64, int(pg)+1-len(w.pages))...)
	}
	if w.pages[pg] == nil {
		w.pages[pg] = new([warmPageLen]float64)
	}
	w.pages[pg][uint32(id)&(warmPageLen-1)] = pot
}

// drop forgets every potential and releases every page.
func (w *warmSlab) drop() { w.pages = nil }

// dedupTable maps a window's candidates to solver columns: an
// open-addressing table (linear probing) whose slots carry the generation
// that wrote them, so starting a window is a counter bump, not a clear. It
// lives in the pooled windowScratch and only ever grows.
type dedupTable struct {
	slots []dedupSlot
	mask  uint32 // this window's table size − 1 (a prefix of slots)
	gen   uint32 // current window's stamp; slots stamped otherwise are empty
}

type dedupSlot struct {
	key refKey
	col int32
	gen uint32
}

// reset empties the table for a window of at most n candidates: the window
// probes a power-of-two prefix of at least 2n slots (load ≤ ½), grown when
// the slab is smaller. A small window after a large one keeps its probes
// inside its own prefix instead of scattering over the large one's.
func (t *dedupTable) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if size > len(t.slots) {
		t.slots = make([]dedupSlot, size)
		t.gen = 0
	}
	t.mask = uint32(size - 1)
	t.gen++
	if t.gen == 0 {
		// The stamp wrapped: slots written 2³² windows ago would read as
		// current. Clear once and restart the count.
		clear(t.slots)
		t.gen = 1
	}
}

// column returns the solver column recorded for key, recording next — the
// column a first-seen candidate opens — when the key is new to this window.
func (t *dedupTable) column(key refKey, next int32) (col int32, fresh bool) {
	for i := key.hash() & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			*s = dedupSlot{key: key, col: next, gen: t.gen}
			return next, true
		}
		if s.key == key {
			return s.col, false
		}
	}
}

// hash mixes the two fields into 32 well-spread bits (Fibonacci hashing
// of the packed key; the table masks the low bits off the product's top).
func (k refKey) hash() uint32 {
	h := (uint64(uint32(k.node))<<32 | uint64(uint32(k.id))) * 0x9E3779B97F4A7C15
	return uint32(h >> 32)
}
