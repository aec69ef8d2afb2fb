package flow

import (
	"math"
	"testing"
)

// FuzzBipartite drives one reused solver through a multi-window tape
// decoded from the fuzz input and checks every window three ways: the
// reused arena and a fresh solver must agree bit for bit (matching, cost,
// closing potentials), and both must reach the brute-force optimum's
// cardinality and cost, whatever the seeded potentials. Wired into the
// nightly fuzz lane alongside the trie and obfuscation fuzzers.
func FuzzBipartite(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 3, 0, 1, 5, 3, 1, 2, 4, 9, 2, 3, 1})
	f.Add([]byte{2, 1, 0, 1, 200, 7, 6, 2, 0, 1, 3, 2, 1, 2, 9, 5})
	f.Add([]byte{11, 7, 3, 3, 3, 3, 3, 3, 3, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		reused := NewBipartite()
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			pos++
			return data[pos-1]
		}
		for cycle := 0; cycle < 8 && pos < len(data); cycle++ {
			in := bipInstance{nTasks: 1 + int(next()%12)}
			nW := 1 + int(next()%10)
			in.caps = make([]int, nW)
			warm := make([]float64, nW)
			for w := range in.caps {
				b := next()
				in.caps[w] = int(b % 4)
				warm[w] = float64(int(b/4) - 32)
			}
			in.arcs = make([][]int, in.nTasks)
			in.costs = make([][]float64, in.nTasks)
			for task := range in.arcs {
				k := int(next() % 5)
				seen := make([]bool, nW)
				for j := 0; j < k; j++ {
					w, c := int(next())%nW, next()%25
					if seen[w] {
						continue
					}
					seen[w] = true
					in.arcs[task] = append(in.arcs[task], w)
					in.costs[task] = append(in.costs[task], float64(c))
				}
			}
			got := outcome(t, reused, in, warm)
			want := outcome(t, NewBipartite(), in, warm)
			if !sameOutcome(got, want) {
				t.Fatalf("cycle %d: reused %+v, fresh %+v", cycle, got, want)
			}
			if n, c := bruteBip(in); got.matched != n || math.Abs(got.cost-c) > 1e-9 {
				t.Fatalf("cycle %d: solver (%d, %v), brute force (%d, %v); %+v", cycle, got.matched, got.cost, n, c, in)
			}
		}
	})
}
