package platform_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/pombm/pombm/internal/cluster"
	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// TestReregisterRacesSubmit: capacity-4 workers re-register at fresh codes
// while tasks are submitted and workers withdraw, on the engine core and on
// a coordinator over three in-process nodes. A move carries exactly the
// units the core still pools, so a Reregister that meets a worker whose
// last unit a Submit popped but has not booked yet is refused and puts no
// unit anywhere. No worker is ever answered past its capacity, and after
// each round the pool's units are Σ(capacity − active) over the workers
// still available.
func TestReregisterRacesSubmit(t *testing.T) {
	const (
		capacity = 4
		workers  = 12
		rounds   = 40
		tasks    = 30 // per submitter; two submitters outrun the round's 48 units
		moves    = 60
	)
	cores := []struct {
		name string
		open func(t *testing.T) *platform.Server
	}{
		{"engine", func(t *testing.T) *platform.Server {
			s, err := platform.NewServer(workload.SyntheticRegion, 8, 8, 0.6, 7,
				platform.WithPolicy(engine.CapacityGreedy()), platform.WithDefaultCapacity(capacity))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"cluster", func(t *testing.T) *platform.Server {
			c, err := cluster.New(cluster.Config{
				Region: workload.SyntheticRegion, Cols: 8, Rows: 8, Epsilon: 0.6, Seed: 7,
				Nodes:  []cluster.NodeConn{cluster.LocalNode(cluster.NewNode()), cluster.LocalNode(cluster.NewNode()), cluster.LocalNode(cluster.NewNode())},
				Policy: "capacity-greedy", DefaultCapacity: capacity,
			})
			if err != nil {
				t.Fatal(err)
			}
			return c.Server()
		}},
	}
	for _, tc := range cores {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			o, err := platform.NewObfuscator(s.Publication(), 5)
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(11)
			code := func() []byte {
				return []byte(o.Obfuscate(geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))))
			}
			var mu sync.Mutex
			answered := map[string]int{} // tasks each worker was answered for
			gone := map[string]bool{}    // workers whose Withdraw was accepted
			var ids []string
			for round := 0; round < rounds; round++ {
				fresh := make([]string, workers)
				for i := range fresh {
					fresh[i] = fmt.Sprintf("r%d-w%d", round, i)
					if resp := s.Register(platform.RegisterRequest{WorkerID: fresh[i], Code: code()}); !resp.OK {
						t.Fatalf("register %s: %s", fresh[i], resp.Reason)
					}
				}
				ids = append(ids, fresh...)
				var taskCodes [2][tasks][]byte
				for g := range taskCodes {
					for i := range taskCodes[g] {
						taskCodes[g][i] = code()
					}
				}
				moveIDs, moveCodes := make([]string, moves), make([][]byte, moves)
				for i := range moveIDs {
					moveIDs[i], moveCodes[i] = fresh[src.Intn(workers)], code()
				}

				var wg sync.WaitGroup
				for g := range taskCodes {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for _, c := range taskCodes[g] {
							r := s.Submit(platform.TaskRequest{Code: c})
							if !r.Assigned {
								continue
							}
							mu.Lock()
							if answered[r.WorkerID]++; answered[r.WorkerID] > capacity {
								t.Errorf("worker %s answered for task %d of capacity %d", r.WorkerID, answered[r.WorkerID], capacity)
							}
							mu.Unlock()
						}
					}()
				}
				wg.Add(2)
				go func() {
					defer wg.Done()
					for i := range moveIDs {
						s.Reregister(platform.ReregisterRequest{WorkerID: moveIDs[i], Code: moveCodes[i]})
					}
				}()
				go func() {
					defer wg.Done()
					for _, id := range fresh[:2] {
						if s.Withdraw(platform.WithdrawRequest{WorkerID: id}).OK {
							mu.Lock()
							gone[id] = true
							mu.Unlock()
						}
					}
				}()
				wg.Wait()

				units, available := 0, 0
				for _, id := range ids {
					if left := capacity - answered[id]; !gone[id] && left > 0 {
						units += left
						available++
					}
				}
				st := s.Stats()
				if st.CapacityUnits != units || st.AvailableWorkers != available {
					t.Fatalf("round %d: the pool holds %d units over %d workers, the answers leave %d over %d",
						round, st.CapacityUnits, st.AvailableWorkers, units, available)
				}
			}
		})
	}
}
