package platform

import (
	"fmt"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
)

// TestMatchLevelStats checks that the server histograms assignment LCA
// levels identically on the one-by-one and batch submission paths.
func TestMatchLevelStats(t *testing.T) {
	single := newTestServer(t)
	batch, err := NewServer(single.Publication().Region, single.Publication().Cols,
		single.Publication().Rows, single.Publication().Epsilon, 42)
	if err != nil {
		t.Fatal(err)
	}

	o, err := NewObfuscator(single.Publication(), 7)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	var workers []RegisterRequest
	for i := 0; i < 40; i++ {
		code := []byte(o.Obfuscate(geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))))
		workers = append(workers, RegisterRequest{WorkerID: fmt.Sprintf("w%d", i), Code: code})
	}
	var tasks []TaskRequest
	for i := 0; i < 50; i++ {
		code := []byte(o.Obfuscate(geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))))
		tasks = append(tasks, TaskRequest{TaskID: fmt.Sprintf("t%d", i), Code: code})
	}

	for _, w := range workers {
		if r := single.Register(w); !r.OK {
			t.Fatal(r.Reason)
		}
		if r := batch.Register(w); !r.OK {
			t.Fatal(r.Reason)
		}
	}
	for _, task := range tasks {
		single.Submit(task)
	}
	batch.SubmitBatch(TaskBatchRequest{Tasks: tasks})

	ss, bs := single.Stats(), batch.Stats()
	if ss.AssignedTasks == 0 {
		t.Fatal("no assignments made")
	}
	if ss.AssignedTasks != bs.AssignedTasks || ss.RejectedTasks != bs.RejectedTasks {
		t.Fatalf("batch diverged: single %+v, batch %+v", ss, bs)
	}
	if len(ss.MatchLevelCounts) != single.Publication().Tree.Depth()+1 {
		t.Fatalf("MatchLevelCounts has %d buckets, want D+1 = %d",
			len(ss.MatchLevelCounts), single.Publication().Tree.Depth()+1)
	}
	total := 0
	for lvl, n := range ss.MatchLevelCounts {
		if n != bs.MatchLevelCounts[lvl] {
			t.Errorf("level %d: single counted %d, batch %d", lvl, n, bs.MatchLevelCounts[lvl])
		}
		total += n
	}
	if total != ss.AssignedTasks {
		t.Errorf("histogram sums to %d, assigned %d", total, ss.AssignedTasks)
	}
	if ss.MeanMatchLevel != bs.MeanMatchLevel {
		t.Errorf("mean level %v ≠ %v", ss.MeanMatchLevel, bs.MeanMatchLevel)
	}
}
