package engine

import (
	"testing"
	"unsafe"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// TestEngineShardCacheLinePadding pins the contention contract: one shard
// per cache line, whatever fields shardData grows. Without the pad,
// adjacent shard locks share a 64-byte line and every acquisition bounces
// its neighbours.
func TestEngineShardCacheLinePadding(t *testing.T) {
	if s := unsafe.Sizeof(engineShard{}); s%cacheLine != 0 {
		t.Fatalf("engineShard is %d bytes around a %d-byte shardData, not a multiple of the %d-byte line: check the computed pad in engine.go",
			s, unsafe.Sizeof(shardData{}), cacheLine)
	}
	var shards [2]engineShard
	a := uintptr(unsafe.Pointer(&shards[0].mu))
	b := uintptr(unsafe.Pointer(&shards[1].mu))
	if (b-a)%cacheLine != 0 {
		t.Fatalf("adjacent shard locks are %d bytes apart", b-a)
	}
	// The size the pad aims for is the one where it is [0]byte: a payload
	// that is already a line multiple must come out unpadded under
	// engineShard's leading-pad shape. (With the pad trailing, go1.24 makes
	// this 136 bytes — a struct ending in a zero-size field gains a word.)
	type payload struct {
		p *int
		_ [2*cacheLine - 8]byte
	}
	type padded struct {
		_ [(cacheLine - unsafe.Sizeof(payload{})%cacheLine) % cacheLine]byte
		payload
	}
	if s := unsafe.Sizeof(padded{}); s != 2*cacheLine {
		t.Fatalf("the leading pad around an already-aligned %d-byte payload gives %d bytes", unsafe.Sizeof(payload{}), s)
	}
}

// TestSubShardRouting pins the sub-sharded partition: shard d0 + degree·t
// holds exactly the codes with first digit d0 and second digit ≡ t mod sub,
// so every worker sharing a query's first two digits is in the query's own
// shard and every worker in a sibling sub-shard shares exactly the first.
func TestSubShardRouting(t *testing.T) {
	grid, err := geo.NewGrid(workload.SyntheticRegion, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(grid.Points(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() < 2 {
		t.Skip("tree too shallow to sub-shard")
	}
	d := tree.Degree()
	st := newEpochState(1, tree, 3*d)
	if st.layout.Sub != 3 || len(st.shards) != 3*d {
		t.Fatalf("sub=%d shards=%d, want 3 and %d", st.layout.Sub, len(st.shards), 3*d)
	}
	if st.ownLimit() != st.layout.Depth-2 {
		t.Fatalf("ownLimit = %d under sub-sharding, want %d", st.ownLimit(), st.layout.Depth-2)
	}
	src := rng.New(17)
	for i := 0; i < 500; i++ {
		code := make([]byte, tree.Depth())
		for j := range code {
			code[j] = byte(src.Intn(d))
		}
		si := st.layout.ShardIdx(hst.Code(code))
		if si%d != int(code[0]) {
			t.Fatalf("code %v routed to shard %d: first digit %d ≠ shard group %d",
				code, si, code[0], si%d)
		}
		if si/d != int(code[1])%st.layout.Sub {
			t.Fatalf("code %v routed to shard %d: second digit group %d ≠ %d",
				code, si, int(code[1])%st.layout.Sub, si/d)
		}
	}
}

// TestShardStatsAccounting: the per-shard counters must add up to the
// serving traffic — every successful pop is one assign, every own-shard
// miss one fallback.
func TestShardStatsAccounting(t *testing.T) {
	grid, err := geo.NewGrid(workload.SyntheticRegion, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hst.Build(grid.Points(), rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(27)
	randCode := func() hst.Code {
		b := make([]byte, tree.Depth())
		for i := range b {
			b[i] = byte(src.Intn(tree.Degree()))
		}
		return hst.Code(b)
	}
	const n = 120
	for i := 0; i < n; i++ {
		if err := e.Insert(randCode(), i); err != nil {
			t.Fatal(err)
		}
	}
	assigned := 0
	for i := 0; i < n+20; i++ {
		if _, _, ok := e.Assign(randCode()); ok {
			assigned++
		}
	}
	var gotAssigns int64
	for _, s := range e.ShardStats() {
		gotAssigns += s.Assigns
	}
	if gotAssigns != int64(assigned) {
		t.Fatalf("Σ ShardStats.Assigns = %d, served %d", gotAssigns, assigned)
	}
}
