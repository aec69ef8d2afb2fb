package wire

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math"
	"sync"
)

// ReplayCache remembers the answers of recently applied mutations by
// idempotency key, so that a call resent after a lost answer is answered
// byte for byte instead of applied twice. Two generations bound its memory:
// a key answers until at least ReplayKeysPerGen other keys have been put
// after it, far longer than any transport retry window.
//
// A key is kept as a 128-bit digest, two maphash values under independent
// seeds, so a lookup takes one key for another with probability 2⁻¹²⁸ a
// pair of distinct keys. A generation is a flat, pointer-free table of
// 5,120 slots, open-addressed with linear probing at ≤ 80 % load, that
// holds a slot's digest in one array and its answer handle in another: 0
// is an empty slot, 1 the one answer most entries hold, the shared ack the
// cache was made with, and any other value 2 + the offset of the answer,
// behind its uvarint length, in the generation's slab. That is 20 B a slot,
// 25 B a key when the generation is full. A generation is allocated at the
// cache's first keyed put and at its first rotation; from then on a
// rotation clears the retiring generation's table and slab and reuses
// them, so a cache that is warm allocates nothing.
type ReplayCache struct {
	mu    sync.Mutex
	seeds [2]maphash.Seed
	ack   []byte
	// perGen is the keys a generation holds (ReplayKeysPerGen) and slabMax
	// the bytes its slab may (math.MaxUint32, so that a handle fits); tests
	// lower both to reach collisions and the overflow rotation.
	perGen    int
	slabMax   uint64
	cur, prev replayGen
}

type replayGen struct {
	keys    [][2]uint64
	handles []uint32
	slab    []byte
	n       int // keys held
}

// ReplayKeysPerGen is how many keys one generation holds.
const ReplayKeysPerGen = 4096

// NewReplayCache returns an empty cache; ack is the answer it keeps once,
// shared by every key that records it. It allocates nothing more until the
// first keyed Put.
func NewReplayCache(ack []byte) *ReplayCache {
	return &ReplayCache{
		seeds:  [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()},
		ack:    ack,
		perGen: ReplayKeysPerGen, slabMax: math.MaxUint32,
	}
}

func (c *ReplayCache) digest(key string) [2]uint64 {
	return [2]uint64{maphash.String(c.seeds[0], key), maphash.String(c.seeds[1], key)}
}

// Append appends the answer recorded under key to dst and reports whether
// there was one. The empty key is never recorded.
func (c *ReplayCache) Append(dst []byte, key string) ([]byte, bool) {
	if key == "" {
		return dst, false
	}
	d := c.digest(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, g := range [...]*replayGen{&c.cur, &c.prev} {
		if i, ok := g.find(d); ok {
			h := g.handles[i]
			if h == 1 {
				return append(dst, c.ack...), true
			}
			n, k := binary.Uvarint(g.slab[h-2:])
			start := int(h-2) + k
			return append(dst, g.slab[start:start+int(n)]...), true
		}
	}
	return dst, false
}

// Put records answer, which the cache copies unless it is the shared ack,
// under key. Putting a key the current generation holds replaces its answer
// and does not count toward the generation's keys.
func (c *ReplayCache) Put(key string, answer []byte) {
	if key == "" {
		return
	}
	d := c.digest(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	slots := c.perGen + c.perGen/4
	if c.cur.handles == nil {
		c.cur.reset(slots)
	}
	ack := bytes.Equal(answer, c.ack)
	i, live := c.cur.find(d)
	if !live && c.cur.n == c.perGen ||
		!ack && uint64(len(c.cur.slab))+binary.MaxVarintLen64+uint64(len(answer)) > c.slabMax {
		c.prev, c.cur = c.cur, c.prev
		c.cur.reset(slots)
		i, live = c.cur.find(d)
	}
	h := uint32(1)
	if !ack {
		h = uint32(len(c.cur.slab)) + 2
		c.cur.slab = append(binary.AppendUvarint(c.cur.slab, uint64(len(answer))), answer...)
	}
	if !live {
		c.cur.keys[i] = d
		c.cur.n++
	}
	c.cur.handles[i] = h
}

// find returns the slot that holds d, or the empty slot where d belongs in a
// generation that has a table. A table is never full, so the probe ends.
func (g *replayGen) find(d [2]uint64) (int, bool) {
	if len(g.handles) == 0 {
		return 0, false
	}
	i := int((d[0] >> 32) * uint64(len(g.handles)) >> 32)
	for g.handles[i] != 0 {
		if g.keys[i] == d {
			return i, true
		}
		if i++; i == len(g.handles) {
			i = 0
		}
	}
	return i, false
}

// reset empties the generation, allocating its table the first time.
func (g *replayGen) reset(slots int) {
	if g.handles == nil {
		g.keys, g.handles = make([][2]uint64, slots), make([]uint32, slots)
	} else {
		clear(g.handles)
	}
	g.slab, g.n = g.slab[:0], 0
}
