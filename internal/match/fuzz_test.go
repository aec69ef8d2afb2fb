package match

import "testing"

// FuzzOptimal decodes small cost matrices and capacities from fuzz bytes
// and holds Optimal, in both orientations, and OptimalCapacitated to the
// brute-force optimum (agreeWithBrute).
func FuzzOptimal(f *testing.F) {
	f.Add([]byte{2, 3, 10, 20, 30, 40, 50, 60})
	f.Add([]byte{1, 1, 7})
	f.Add([]byte{3, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(data[0]%4) + 1
		m := n + int(data[1]%3)
		if len(data)-2 < n*m {
			return
		}
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = float64(data[2+i*m+j]) / 4
			}
		}
		// Capacities in 0..2 from the bytes after the matrix (0 when they
		// run out), topped up until they cover the tasks.
		caps := make([]int, m)
		total := 0
		for j := range caps {
			if k := 2 + n*m + j; k < len(data) {
				caps[j] = int(data[k] % 3)
			}
			total += caps[j]
		}
		for j := 0; total < n; j = (j + 1) % m {
			caps[j]++
			total++
		}
		agreeWithBrute(t, "fuzz", cost, m, caps)
	})
}
