package engine

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// populationOf flattens an engine's available pool into a canonical,
// comparable form.
func populationOf(e *Engine) []string {
	var got []string
	e.WalkCap(func(code hst.Code, id, capacity int) {
		got = append(got, fmt.Sprintf("%x/%d/%d", string(code), id, capacity))
	})
	sort.Strings(got)
	return got
}

// The streaming swap must land the exact state the materialized swap lands:
// same epoch, same tree, same population unit for unit, same subsequent
// assignments.
func TestSwapEpochSeqMatchesSwapEpoch(t *testing.T) {
	tree1 := buildTestTree(t, 1, 8)
	tree2 := buildTestTree(t, 2, 8)
	mkEngine := func() *Engine {
		eng, err := NewWithOptions(tree1, 4, WithPolicy(CapacityGreedy()))
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(7)
		for id := 0; id < 64; id++ {
			if err := eng.InsertCapEpoch(randCode(tree1, src), id, 1+id%3, 0); err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}
	src := rng.New(9)
	inserts := make([]EpochInsert, 200)
	for i := range inserts {
		inserts[i] = EpochInsert{Code: randCode(tree2, src), ID: 1000 + i, Cap: 1 + i%4}
	}

	matEng := mkEngine()
	if err := matEng.SwapEpoch(2, tree2, 0, inserts); err != nil {
		t.Fatal(err)
	}
	seqEng := mkEngine()
	err := seqEng.SwapEpochSeq(2, tree2, 0, func(yield func(EpochInsert) bool) {
		for _, in := range inserts {
			if !yield(in) {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	if seqEng.Epoch() != 2 || seqEng.Tree() != tree2 {
		t.Fatalf("seq swap: epoch=%d tree ok=%v", seqEng.Epoch(), seqEng.Tree() == tree2)
	}
	mat, seq := populationOf(matEng), populationOf(seqEng)
	if len(mat) != len(seq) {
		t.Fatalf("population sizes differ: %d vs %d", len(mat), len(seq))
	}
	for i := range mat {
		if mat[i] != seq[i] {
			t.Fatalf("population[%d]: %q vs %q", i, mat[i], seq[i])
		}
	}
	// Drain both with the same task stream: answer-for-answer identical.
	drain := rng.New(11)
	for i := 0; i < 300; i++ {
		code := randCode(tree2, drain)
		mid, mlvl, mok := matEng.Assign(code)
		sid, slvl, sok := seqEng.Assign(code)
		if mid != sid || mlvl != slvl || mok != sok {
			t.Fatalf("assign %d diverged: (%d,%d,%v) vs (%d,%d,%v)", i, mid, mlvl, mok, sid, slvl, sok)
		}
	}
}

// Validation failures surface before anything is torn down: the old epoch
// keeps serving its full population.
func TestSwapEpochSeqValidationKeepsServing(t *testing.T) {
	tree1 := buildTestTree(t, 3, 8)
	tree2 := buildTestTree(t, 4, 8)
	eng, err := New(tree1, 4)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	for id := 0; id < 32; id++ {
		if err := eng.Insert(randCode(tree1, src), id); err != nil {
			t.Fatal(err)
		}
	}
	good := randCode(tree2, src)
	cases := []struct {
		name string
		in   EpochInsert
		want string
	}{
		{"bad code", EpochInsert{Code: hst.Code("\x00"), ID: 1}, "code"},
		{"negative id", EpochInsert{Code: good, ID: -1}, "id"},
	}
	for _, tc := range cases {
		err := eng.SwapEpochSeq(2, tree2, 0, func(yield func(EpochInsert) bool) {
			yield(EpochInsert{Code: good, ID: 100})
			yield(tc.in)
		})
		if err == nil {
			t.Fatalf("%s: swap accepted", tc.name)
		}
		if eng.Epoch() != FirstEpoch || eng.Len() != 32 {
			t.Fatalf("%s: old epoch damaged: epoch=%d len=%d", tc.name, eng.Epoch(), eng.Len())
		}
	}
	// Stale epoch refused without invoking the sequence at all.
	if err := eng.SwapEpochSeq(FirstEpoch, tree2, 0, func(func(EpochInsert) bool) {}); err == nil ||
		!strings.Contains(err.Error(), "already serving") {
		t.Fatalf("stale swap: %v", err)
	}
	if err := eng.SwapEpochSeq(2, nil, 0, func(func(EpochInsert) bool) {}); err == nil {
		t.Fatal("nil tree accepted")
	}
}

// A population no shard's index could hold is a typed refusal from the
// validation pass, not a panic half way through the rebuild: the old epoch
// keeps its population and goes on serving, and the same run under the real
// ceiling swaps.
func TestSwapEpochSeqRefusesAFullArenaBeforeTeardown(t *testing.T) {
	tree1 := buildTestTree(t, 3, 8)
	tree2 := buildTestTree(t, 4, 8)
	eng, err := New(tree1, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	for id := 0; id < 32; id++ {
		if err := eng.Insert(randCode(tree1, src), id); err != nil {
			t.Fatal(err)
		}
	}
	before := populationOf(eng)
	const n = 4096
	codes := make([]hst.Code, n)
	for i := range codes {
		codes[i] = randCode(tree2, src)
	}
	calls := 0
	seq := func(yield func(EpochInsert) bool) {
		calls++
		for id, c := range codes {
			if !yield(EpochInsert{Code: c, ID: id}) {
				return
			}
		}
	}
	ceiling := hst.MaxArenaLen
	hst.MaxArenaLen = n // under one item slot a worker: the rebuild itself would run out
	err = eng.SwapEpochSeq(2, tree2, 1, seq)
	hst.MaxArenaLen = ceiling
	if !errors.Is(err, hst.ErrIndexFull) {
		t.Fatalf("swap of %d workers under a %d-slot ceiling: %v, want ErrIndexFull", n, n, err)
	}
	if calls != 1 {
		t.Fatalf("the refused swap ran the sequence %d times, want the validation pass alone", calls)
	}
	if got := populationOf(eng); eng.Epoch() != FirstEpoch || !slices.Equal(got, before) {
		t.Fatalf("refused swap damaged the old epoch: epoch=%d, %d of %d workers left", eng.Epoch(), len(got), len(before))
	}
	if id, _, ok := eng.Assign(randCode(tree1, src)); !ok || id < 0 {
		t.Fatalf("old epoch stopped serving after the refusal: (%d,%v)", id, ok)
	}
	if err := eng.SwapEpochSeq(2, tree2, 1, seq); err != nil || eng.Len() != n {
		t.Fatalf("the same run under the real ceiling: %v, Len %d", err, eng.Len())
	}
}

// PrepareSwapSeq builds the staged state straight off a pull iterator; a
// mid-stream error aborts with the serving epoch untouched, and a committed
// prepare matches the materialized two-phase path.
func TestPrepareSwapSeq(t *testing.T) {
	tree1 := buildTestTree(t, 6, 8)
	tree2 := buildTestTree(t, 7, 8)
	eng, err := New(tree1, 4)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(13)
	for id := 0; id < 16; id++ {
		if err := eng.Insert(randCode(tree1, src), id); err != nil {
			t.Fatal(err)
		}
	}
	inserts := make([]EpochInsert, 40)
	for i := range inserts {
		inserts[i] = EpochInsert{Code: randCode(tree2, src), ID: 500 + i}
	}

	// Decode-error abort.
	i := 0
	_, err = eng.PrepareSwapSeq(2, tree2, func() (EpochInsert, bool, error) {
		if i >= 20 {
			return EpochInsert{}, false, fmt.Errorf("wire decode failed")
		}
		in := inserts[i]
		i++
		return in, true, nil
	})
	if err == nil || !strings.Contains(err.Error(), "wire decode failed") {
		t.Fatalf("stream error not propagated: %v", err)
	}
	if eng.Epoch() != FirstEpoch || eng.Len() != 16 {
		t.Fatalf("aborted prepare damaged serving state: epoch=%d len=%d", eng.Epoch(), eng.Len())
	}

	// Full stream, then commit.
	i = 0
	p, err := eng.PrepareSwapSeq(2, tree2, func() (EpochInsert, bool, error) {
		if i >= len(inserts) {
			return EpochInsert{}, false, nil
		}
		in := inserts[i]
		i++
		return in, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.CommitSwap(p); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != 2 || eng.Len() != len(inserts) {
		t.Fatalf("after streamed prepare+commit: epoch=%d len=%d", eng.Epoch(), eng.Len())
	}
}

// ArenaBytes must scale with the population — it is the numerator of the
// soak lane's structural bytes-per-worker figure.
func TestEngineArenaBytes(t *testing.T) {
	tree := buildTestTree(t, 8, 8)
	eng, err := New(tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	empty := eng.ArenaBytes()
	src := rng.New(17)
	for id := 0; id < 4096; id++ {
		if err := eng.Insert(randCode(tree, src), id); err != nil {
			t.Fatal(err)
		}
	}
	full := eng.ArenaBytes()
	if full <= empty {
		t.Fatalf("ArenaBytes did not grow: %d -> %d", empty, full)
	}
	if perWorker := float64(full) / 4096; perWorker > 512 {
		t.Fatalf("structural bytes/worker = %.0f, expected well under 512", perWorker)
	}
}

// TestSwapEpochSeqPeak holds the streaming swap to its contract: rotating
// 100k workers holds less extra live heap than one copy of the
// population's arenas (it reads about 0.05×), because the old arenas are
// released and collected before the build. It is a top-level test that
// never calls t.Parallel, so no other test allocates inside its bracket.
func TestSwapEpochSeqPeak(t *testing.T) {
	const workers = 100_000
	tree := buildTestTree(t, 2020, 64)
	eng, err := New(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A worker's code is a function of its id and generation, so the swap's
	// sequence replays without a second copy of the population.
	code := func(id, gen int) hst.Code { return tree.CodeOf((id*7919 + gen*104729) % tree.NumPoints()) }
	for id := 0; id < workers; id++ {
		if err := eng.Insert(code(id, 0), id); err != nil {
			t.Fatal(err)
		}
	}
	arenas := eng.ArenaBytes()
	// The live heap, read off runtime/metrics, which does not stop the
	// world the way ReadMemStats does.
	heap := func() int64 {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		metrics.Read(s)
		return int64(s[0].Value.Uint64())
	}

	runtime.GC()
	base := heap()
	stop, peakCh := make(chan struct{}), make(chan int64)
	go func() {
		peak := heap()
		for {
			select {
			case <-stop:
				peakCh <- max(peak, heap())
				return
			default:
				peak = max(peak, heap())
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	err = eng.SwapEpochSeq(eng.Epoch()+1, tree, 0, func(yield func(EpochInsert) bool) {
		for id := 0; id < workers; id++ {
			if !yield(EpochInsert{Code: code(id, 1), ID: id}) {
				return
			}
		}
	})
	close(stop)
	extra := <-peakCh - base
	if err != nil {
		t.Fatal(err)
	}
	if eng.Len() != workers {
		t.Fatalf("the swap landed %d workers, want %d", eng.Len(), workers)
	}
	ratio := float64(extra) / float64(arenas)
	t.Logf("peak extra heap %d B = %.3fx the population's %d arena bytes", extra, ratio, arenas)
	if ratio >= 1 {
		t.Errorf("the swap held %d B extra, %.2fx the population's %d arena bytes; the contract is < 1x", extra, ratio, arenas)
	}
}
