package cluster

import (
	"slices"
	"sync"
	"testing"

	"github.com/pombm/pombm/internal/engine"
)

// TestSubmitsDuringDistributedRotation races assignments against the
// two-phase epoch swap: every answer must come from exactly one epoch's
// population, no unit may be handed out twice, and the swap must land on
// every node with the racing traffic unable to observe a half-committed
// cluster.
func TestSubmitsDuringDistributedRotation(t *testing.T) {
	tree := buildTree(t, 7)
	next := buildTree(t, 8)
	pol, _ := engine.PolicyByName("greedy")
	nodes := localNodes(3)
	core, err := newFanCore(nodes, tree, pol, 1)
	if err != nil {
		t.Fatal(err)
	}
	const oldPop, newBase, newPop = 60, 1000, 40
	for i := 0; i < oldPop; i++ {
		if err := core.InsertCapEpoch(tree.CodeOf((i*3)%tree.NumPoints()), i, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	var inserts []engine.EpochInsert
	for i := 0; i < newPop; i++ {
		inserts = append(inserts, engine.EpochInsert{Code: next.CodeOf((i * 5) % next.NumPoints()), ID: newBase + i, Cap: 1})
	}

	var mu sync.Mutex
	seen := map[int]int{}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 40; i++ {
				// Codes from both trees: pre-swap draws on the new tree (and
				// post-swap draws on the old) are refused as malformed, which
				// is the protocol, not a failure.
				var code = tree.CodeOf((g*41 + i*13) % tree.NumPoints())
				if i%2 == 1 {
					code = next.CodeOf((g*29 + i*7) % next.NumPoints())
				}
				if id, _, ok := core.Assign(code); ok {
					mu.Lock()
					seen[id]++
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := core.SwapEpochSeq(2, next, 0, slices.Values(inserts)); err != nil {
			t.Errorf("swap under load: %v", err)
		}
	}()
	close(start)
	wg.Wait()

	for id, n := range seen {
		if n != 1 {
			t.Errorf("unit %d handed out %d times", id, n)
		}
		if !(id < oldPop || (id >= newBase && id < newBase+newPop)) {
			t.Errorf("assigned id %d belongs to no epoch's population", id)
		}
	}
	if core.Epoch() != 2 {
		t.Fatalf("epoch %d after racing swap", core.Epoch())
	}
	for i, nd := range nodes {
		st, err := nd.Do(OpRequest{Kind: OpStatus})
		if err != nil {
			t.Fatal(err)
		}
		if st.Epoch != 2 {
			t.Fatalf("node %d on epoch %d", i, st.Epoch)
		}
	}
	// Post-swap, only the new population serves.
	for {
		id, _, ok := core.Assign(next.CodeOf(0))
		if !ok {
			break
		}
		if id < newBase {
			t.Fatalf("old-epoch unit %d served after the swap", id)
		}
	}
}
