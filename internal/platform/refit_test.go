package platform

import (
	"fmt"
	"slices"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
)

// refitByDecode is the refit histogram counted the long way: every live
// stint with a report of the serving epoch decodes its code and looks the
// point up in the tree.
func refitByDecode(s *Server) []int {
	hist := make([]int, s.pub.Tree.NumPoints())
	var buf []byte
	for slot := 0; slot < s.tab.len(); slot++ {
		if st := s.tab.at(slot).state(); st != stateAvailable && st != stateAssigned || s.tab.lag(slot) != 0 {
			continue
		}
		if p, ok := s.pub.Tree.PointOf(s.tab.code(slot, &buf)); ok {
			hist[p]++
		}
	}
	return hist
}

// TestRefitHistogramMatchesDecode holds the packed-code count equal to the
// decode-and-look-up one over a population with every kind of slot: live
// stints on real and on fake leaves, busy ones, a stint a rotation carried
// busy (its report lags), and withdrawn, parked and superseded ones.
func TestRefitHistogramMatchesDecode(t *testing.T) {
	s := newCapServer(t, WithPolicy(engine.CapacityGreedy()), WithDefaultCapacity(2), WithLifetimeBudget(1e12))
	src := rng.New(3)
	code := func() []byte {
		tree := s.Publication().Tree
		if src.Intn(3) == 0 { // any digit string: a fake leaf, mostly
			c := make([]byte, tree.Depth())
			for j := range c {
				c[j] = byte(src.Intn(tree.Degree()))
			}
			return c
		}
		return []byte(tree.CodeOf(src.Intn(tree.NumPoints())))
	}
	register := func(from, to int) {
		for i := from; i < to; i++ {
			if r := s.Register(RegisterRequest{WorkerID: fmt.Sprint("w", i), Code: code()}); !r.OK {
				t.Fatal(r.Reason)
			}
		}
	}
	submit := func(n int) {
		for range n {
			s.Submit(TaskRequest{Code: code()})
		}
	}
	register(0, 200)
	submit(150) // some workers at capacity: carried busy by the rotation
	tree := s.Publication().Tree
	if r := s.RotateNow(PrepareRotateRequest{Seed: 9}, nil, func(string, *hst.Tree) (hst.Code, error) {
		return hst.Code(code()), nil
	}); !r.OK {
		t.Fatal(r.Reason)
	}
	if s.Publication().Tree == tree {
		t.Fatal("the rotation kept the tree")
	}
	register(200, 400)
	submit(100)
	for i := 200; i < 230; i++ {
		id := fmt.Sprint("w", i)
		switch i % 3 {
		case 0: // withdrawn
			s.Withdraw(WithdrawRequest{WorkerID: id})
		case 1: // parked by a saturated ledger at its next report
			setReports(t, s, id, s.maxReports)
			s.Reregister(ReregisterRequest{WorkerID: id, Code: code()})
		case 2: // superseded: withdrawn, then back in a fresh slot once idle
			s.Withdraw(WithdrawRequest{WorkerID: id})
			s.Register(RegisterRequest{WorkerID: id, Code: code()})
		}
	}
	for i := 230; i < 260; i++ { // fresh reports: moves within the epoch
		s.Reregister(ReregisterRequest{WorkerID: fmt.Sprint("w", i), Code: code()})
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	kinds := map[string]int{}
	for slot := 0; slot < s.tab.len(); slot++ {
		st := s.tab.at(slot).state()
		switch {
		case s.tab.lag(slot) != 0:
			kinds["carried"]++
		case st == stateAvailable || st == stateAssigned:
			if _, real := s.pub.Tree.PointOf(s.tab.code(slot, &s.codeBuf)); real {
				kinds["real"]++
			} else {
				kinds["fake"]++
			}
		}
		kinds[fmt.Sprint("state ", st)]++
	}
	for _, k := range []string{"carried", "real", "fake",
		fmt.Sprint("state ", stateAssigned), fmt.Sprint("state ", stateGone),
		fmt.Sprint("state ", stateParked), fmt.Sprint("state ", stateRetired)} {
		if kinds[k] == 0 {
			t.Fatalf("the population has no %s slot: %v", k, kinds)
		}
	}
	if got, want := s.refitHistogram(), refitByDecode(s); !slices.Equal(got, want) {
		t.Fatalf("packed-code histogram differs from the decoded one (population %v)", kinds)
	}
}

// BenchmarkRefitHistogram times what a refit rotation holds Server.mu for:
// the histogram count over 100,000 workers registered on the repository
// benchmark's tree (64×64 grid, depth 10, degree 22) at codes an agent
// draws, fake leaves included.
func BenchmarkRefitHistogram(b *testing.B) {
	s := newBenchTreeServer(b)
	ob, err := NewObfuscator(s.Publication(), 5)
	if err != nil {
		b.Fatal(err)
	}
	for i, c := range ob.ObfuscateBatch(uniformPoints(100000, 5)) {
		if r := s.Register(RegisterRequest{WorkerID: fmt.Sprint("w", i), Code: []byte(c)}); !r.OK {
			b.Fatal(r.Reason)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		s.mu.Lock()
		s.refitHistogram()
		s.mu.Unlock()
	}
}
