package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
)

var testAck = []byte(`{"ok":true}`)

// replayModel is the cache's reference: the same two-generation rule over
// maps of whole answers, the slab counted only in bytes.
type replayModel struct {
	ack       []byte
	perGen    int
	slabMax   uint64
	cur, prev map[string][]byte
	slab      uint64 // bytes the current generation's slab holds
	rotations int
}

func newReplayModel(c *ReplayCache) *replayModel {
	return &replayModel{ack: c.ack, perGen: c.perGen, slabMax: c.slabMax, cur: map[string][]byte{}}
}

func (m *replayModel) put(key string, answer []byte) {
	if key == "" {
		return
	}
	_, live := m.cur[key]
	ack := bytes.Equal(answer, m.ack)
	if !live && len(m.cur) == m.perGen || !ack && m.slab+binary.MaxVarintLen64+uint64(len(answer)) > m.slabMax {
		m.prev, m.cur, m.slab = m.cur, map[string][]byte{}, 0
		m.rotations++
	}
	if !ack {
		m.slab += uint64(len(binary.AppendUvarint(nil, uint64(len(answer))))) + uint64(len(answer))
	}
	m.cur[key] = bytes.Clone(answer)
}

func (m *replayModel) get(key string) ([]byte, bool) {
	if a, ok := m.cur[key]; ok {
		return a, true
	}
	a, ok := m.prev[key]
	return a, ok
}

// replayRig runs one cache and its model side by side, and knows when each
// key was last put.
type replayRig struct {
	t     testing.TB
	c     *ReplayCache
	m     *replayModel
	last  map[string]int // a key's last put, by put count
	puts  int
	dst   []byte
	known []string // every key put, in first-put order
}

func newReplayRig(t testing.TB, perGen int, slabMax uint64) *replayRig {
	c := NewReplayCache(testAck)
	c.perGen, c.slabMax = perGen, slabMax
	return &replayRig{t: t, c: c, m: newReplayModel(c), last: map[string]int{}}
}

func (r *replayRig) put(key string, answer []byte) {
	r.c.Put(key, answer)
	r.m.put(key, answer)
	if _, seen := r.last[key]; !seen && key != "" {
		r.known = append(r.known, key)
	}
	r.puts++
	r.last[key] = r.puts
}

// get holds one lookup to the model's, on a dst that already holds bytes.
func (r *replayRig) get(key string) {
	r.t.Helper()
	r.dst = append(r.dst[:0], "prefix"...)
	got, ok := r.c.Append(r.dst, key)
	want, wantOK := r.m.get(key)
	if ok != wantOK || !bytes.Equal(got, append([]byte("prefix"), want...)) {
		r.t.Fatalf("after %d puts (%d rotations) %q reads %q (%v), the model %q (%v)",
			r.puts, r.m.rotations, key, got, ok, want, wantOK)
	}
}

// retained checks the retention guarantee: every key answers until at least
// perGen other keys have been put after it. A key's rank among the keys by
// last put, newest first, is how many others were put after it.
func (r *replayRig) retained() {
	r.t.Helper()
	byLast := slices.Clone(r.known)
	slices.SortFunc(byLast, func(a, b string) int { return r.last[b] - r.last[a] })
	for rank, key := range byLast[:min(len(byLast), r.c.perGen)] {
		if _, ok := r.c.Append(nil, key); !ok {
			r.t.Fatalf("after %d puts %q is gone with only %d keys put after it", r.puts, key, rank)
		}
	}
}

// replayTape drives a rig with n random operations: puts of fresh keys, re-puts
// of recent ones (mostly still in the current generation), gets of any key
// ever put and of keys never put. Answers are the ack or 1–60 random bytes.
func replayTape(r *replayRig, rng *rand.Rand, n int, retention bool) {
	fresh := 0
	answer := func() []byte {
		if rng.IntN(5) < 3 {
			return testAck
		}
		b := make([]byte, 1+rng.IntN(60))
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return b
	}
	for i := 0; i < n; i++ {
		switch op := rng.IntN(10); {
		case op < 4:
			r.put("k"+strconv.Itoa(fresh), answer())
			fresh++
		case op < 6 && len(r.known) > 0:
			r.put(r.known[max(0, len(r.known)-1-rng.IntN(r.c.perGen/2+1))], answer())
		case op < 9 && len(r.known) > 0:
			r.get(r.known[rng.IntN(len(r.known))])
		default:
			r.get("never" + strconv.Itoa(rng.IntN(100)))
		}
		if retention && i%1024 == 0 {
			r.retained()
		}
	}
	if retention {
		r.retained()
	}
	for _, key := range r.known {
		r.get(key)
	}
}

// TestReplayModel runs random put/get tapes against the model across at least
// three generation changes: at the real size, where the retention guarantee
// is checked too; at eight keys a generation, where ten slots make most keys
// share a home slot and probes wrap; and with a slab so small that it, not
// the key count, rotates the generations.
func TestReplayModel(t *testing.T) {
	for _, tc := range []struct {
		name      string
		perGen    int
		slabMax   uint64
		ops       int
		retention bool
	}{
		{"full-size", ReplayKeysPerGen, 1<<32 - 1, 40_000, true},
		{"colliding", 8, 1<<32 - 1, 2_000, true},
		{"slab-overflow", 64, 600, 4_000, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				r := newReplayRig(t, tc.perGen, tc.slabMax)
				replayTape(r, rand.New(rand.NewPCG(seed, 35)), tc.ops, tc.retention)
				if r.m.rotations < 3 {
					t.Fatalf("seed %d: the tape crossed %d generation changes, want ≥ 3", seed, r.m.rotations)
				}
			}
		})
	}
}

// TestReplayReputsDoNotCount: putting a key the current generation holds
// replaces its answer without using up one of the generation's keys, so a
// generation of re-puts still holds its first keys for a whole generation
// more.
func TestReplayReputsDoNotCount(t *testing.T) {
	const perGen = 8
	r := newReplayRig(t, perGen, 1<<32-1)
	for round := 0; round < 10; round++ {
		for i := 0; i < perGen; i++ {
			r.put("k"+strconv.Itoa(i), []byte(fmt.Sprintf("answer %d.%d", round, i)))
		}
	}
	// k8 opens the second generation; k0 … k7 answer until the third opens.
	for i := perGen; i < 2*perGen; i++ {
		r.put("k"+strconv.Itoa(i), testAck)
		r.get("k0")
	}
	if got, ok := r.c.Append(nil, "k0"); !ok || string(got) != "answer 9.0" {
		t.Fatalf("k0 reads %q (%v) after a generation of other keys, want its last answer", got, ok)
	}
	r.put("k16", testAck)
	if _, ok := r.c.Append(nil, "k0"); ok {
		t.Fatal("k0 outlived two generation changes")
	}
	r.get("k8")
}

// TestReplayConcurrent: streams put and look up at once, across rotations
// that reuse the slabs they read from; a lookup answers its own key's
// answer or nothing, never another's.
func TestReplayConcurrent(t *testing.T) {
	c := NewReplayCache(testAck)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []byte
			for i := 0; i < 2*ReplayKeysPerGen; i++ {
				key := fmt.Sprintf("g%d-%d", g, i)
				answer := testAck
				if i%2 == 1 {
					answer = []byte(key)
				}
				c.Put(key, answer)
				var ok bool
				if dst, ok = c.Append(dst[:0], key); ok && !bytes.Equal(dst, answer) {
					t.Errorf("%q answers %q", key, dst)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReplayEmptyKey: the empty key is never recorded.
func TestReplayEmptyKey(t *testing.T) {
	c := NewReplayCache(testAck)
	c.Put("", []byte("x"))
	if got, ok := c.Append([]byte("d"), ""); ok || string(got) != "d" {
		t.Fatalf("the empty key reads %q (%v)", got, ok)
	}
	if c.cur.handles != nil {
		t.Fatal("an unkeyed put allocated a table")
	}
}

// FuzzReplay runs the model test's oracle on a fuzzed tape: each three bytes
// a put or a get of one of 32 keys, the put's answer the ack or the tape's
// next bytes, at four to 64 keys a generation and with the slab limit low or
// not.
func FuzzReplay(f *testing.F) {
	f.Add(uint8(0), false, []byte{0, 1, 0, 0, 2, 5, 1, 1, 0, 1, 2, 0})
	f.Add(uint8(3), true, bytes.Repeat([]byte{0, 7, 9, 1, 7, 0, 0, 8, 0}, 40))
	f.Add(uint8(60), true, bytes.Repeat([]byte{0, 1, 30, 0, 2, 0, 0, 3, 30, 0, 4, 0, 0, 5, 0, 1, 1, 0}, 30))
	tape := make([]byte, 0, 600)
	for i := 0; i < 200; i++ {
		tape = append(tape, byte(i%3), byte(i*7), byte(i%5*9))
	}
	f.Add(uint8(1), false, tape)
	f.Fuzz(func(t *testing.T, size uint8, lowSlab bool, tape []byte) {
		slabMax := uint64(1<<32 - 1)
		if lowSlab {
			slabMax = 200
		}
		r := newReplayRig(t, 4+int(size)%61, slabMax)
		keys := make([]string, 32)
		for i := range keys {
			keys[i] = "key-" + strconv.Itoa(i)
		}
		for ; len(tape) >= 3; tape = tape[3:] {
			key := keys[tape[1]%32]
			if tape[0]%3 == 0 {
				r.get(key)
				continue
			}
			answer := testAck
			if n := int(tape[2] % 64); n > 0 {
				answer = bytes.Repeat(tape[1:2], n)
			}
			r.put(key, answer)
			if !lowSlab {
				r.retained()
			}
		}
		for _, key := range keys {
			r.get(key)
		}
	})
}

// TestReplayFootprint pins what the cache allocates: nothing until the first
// keyed put, one table at it — all a node that saw only its init holds — and
// at most 26 B a key for a full generation of acks, where a map of digests
// cost 53.
func TestReplayFootprint(t *testing.T) {
	keys := make([]string, ReplayKeysPerGen)
	for i := range keys {
		keys[i] = "AbCdEf" + strconv.FormatInt(int64(i), 36)
	}
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	allocated := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - base.TotalAlloc
	}
	const table = 20 * (ReplayKeysPerGen + ReplayKeysPerGen/4)
	c := NewReplayCache(testAck)
	if n := allocated(); n > 512 {
		t.Errorf("an empty cache allocated %d B, want no table", n)
	}
	c.Put("init-1", append(bytes.Clone(testAck), '\n')) // an init's answer: not the shared ack
	if n := allocated(); n > table+512 {
		t.Errorf("a cache that saw one keyed put allocated %d B, want one %d B table", n, table)
	}
	for _, key := range keys[1:] {
		c.Put(key, testAck)
	}
	if c.prev.handles != nil {
		t.Fatal("a generation of keys rotated")
	}
	n := allocated()
	if n > 26*ReplayKeysPerGen {
		t.Errorf("a full generation allocated %d B, %.1f B a key, want ≤ 26", n, float64(n)/ReplayKeysPerGen)
	}
	t.Logf("a full generation allocated %d B, %.1f B a key", n, float64(n)/ReplayKeysPerGen)
}

// TestReplayAllocs: once both generations have been through a rotation, a
// put — of the shared ack or of an answer the slab copies — and a get
// allocate nothing, however many rotations follow.
func TestReplayAllocs(t *testing.T) {
	c := NewReplayCache(testAck)
	answer := []byte(`{"ok":true,"id":12345,"level":3,"found":true}`)
	keys := make([]string, 3*ReplayKeysPerGen)
	for i := range keys {
		keys[i] = "AbCdEf" + strconv.FormatInt(int64(i), 36)
	}
	dst := make([]byte, 0, 64)
	cycle := func() {
		for i, key := range keys {
			if i%2 == 0 {
				c.Put(key, testAck)
			} else {
				c.Put(key, answer)
			}
			if _, ok := c.Append(dst[:0], key); !ok {
				t.Fatalf("%q is not answered right after its put", key)
			}
		}
	}
	cycle() // allocates both tables and grows both slabs
	if n := testing.AllocsPerRun(2, cycle); n != 0 {
		t.Errorf("%d puts and gets, three rotations, allocate %v, want 0", len(keys), n)
	}
}
