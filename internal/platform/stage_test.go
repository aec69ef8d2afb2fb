package platform

import (
	"fmt"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/workload"
)

// rotationState is what a rotation moves: the serving epoch and tree, the
// staging and the rotation counters.
type rotationState struct {
	epoch              int64
	tree, staged       *hst.Tree
	rotations, rotated int
}

func rotationOf(t *testing.T, s *Server) rotationState {
	t.Helper()
	st, pub := s.Stats(), s.Publication()
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.Epoch != pub.Epoch || s.tab.epoch != pub.Epoch {
		t.Fatalf("stats at epoch %d, publication at %d, table at %d", st.Epoch, pub.Epoch, s.tab.epoch)
	}
	return rotationState{pub.Epoch, pub.Tree, s.staged, st.Rotations, st.RotatedWorkers}
}

// TestRotateLifecycle walks two rotations through PrepareRotate, Rotate
// and RotateNow: what each stages, serves and counts, and that the server
// derives the next tree as hst.BuildEpoch of its seed and the next epoch.
func TestRotateLifecycle(t *testing.T) {
	s := newTestServer(t)
	registerN(t, s, 3)
	first := s.Publication().Tree
	if got := rotationOf(t, s); got != (rotationState{epoch: engine.FirstEpoch, tree: first}) {
		t.Fatalf("fresh server: %+v", got)
	}
	if resp := s.Rotate(RotateRequest{}); resp.OK || !strings.Contains(resp.Reason, "no rotation staged") {
		t.Fatalf("commit without prepare: %+v", resp)
	}

	prep := s.PrepareRotate(PrepareRotateRequest{})
	if !prep.OK || prep.Epoch != 2 || prep.Tree == nil || prep.Tree.NumPoints() != first.NumPoints() {
		t.Fatalf("prepare: %+v", prep)
	}
	want, err := hst.BuildEpoch(first.Points(), 42, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < want.NumPoints(); p++ {
		if prep.Tree.CodeOf(p) != want.CodeOf(p) {
			t.Fatalf("point %d: staged code %v, hst.BuildEpoch's %v", p, prep.Tree.CodeOf(p), want.CodeOf(p))
		}
	}
	// Staging serves nothing yet.
	if got := rotationOf(t, s); got != (rotationState{epoch: 1, tree: first, staged: prep.Tree}) {
		t.Fatalf("staged: %+v", got)
	}

	report := rotReporter(rng.New(5))
	var reports []WorkerReport
	for _, w := range []string{"w0", "w2"} {
		code, _ := report(w, prep.Tree)
		reports = append(reports, WorkerReport{WorkerID: w, Code: []byte(code)})
	}
	resp := s.Rotate(RotateRequest{Epoch: prep.Epoch, Reports: reports})
	if !resp.OK || resp.Rotated != 2 || len(resp.Dropped) != 1 {
		t.Fatalf("rotate: %+v", resp)
	}
	if got := rotationOf(t, s); got != (rotationState{epoch: 2, tree: prep.Tree, rotations: 1, rotated: 2}) {
		t.Fatalf("after one commit: %+v", got)
	}

	resp = s.RotateNow(PrepareRotateRequest{}, nil, report)
	if !resp.OK || resp.Rotated != 2 {
		t.Fatalf("rotate now: %+v", resp)
	}
	if got := rotationOf(t, s); got.epoch != 3 || got.staged != nil || got.rotations != 2 || got.rotated != 4 {
		t.Fatalf("after two commits: %+v", got)
	}
}

// TestRotateCommitRefusals pins Rotate's refusals — nothing staged, before
// any prepare and again after a commit dropped the staging; a commit for
// another epoch than the staged one; a swap the core refuses — and that
// each leaves the server serving what it served with the same staging
// still committable.
func TestRotateCommitRefusals(t *testing.T) {
	pub := newTestServer(t).Publication()
	eng, err := engine.New(pub.Tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	core := &flakyCore{Engine: eng}
	s, err := NewServer(workload.SyntheticRegion, 8, 8, 0.6, 42, WithCore(core))
	if err != nil {
		t.Fatal(err)
	}
	registerN(t, s, 4)
	refused := func(what string, req RotateRequest, want rotationState) {
		t.Helper()
		if resp := s.Rotate(req); resp.OK || resp.Err == nil {
			t.Fatalf("%s: %+v", what, resp)
		}
		if got := rotationOf(t, s); got != want {
			t.Fatalf("%s moved the server to %+v, want %+v", what, got, want)
		}
		if st := s.Stats(); st.AvailableWorkers != 4 || st.SlotTableLen != 4 {
			t.Fatalf("%s moved the population: %+v", what, st)
		}
	}
	refused("commit with nothing staged", RotateRequest{Epoch: 2}, rotationState{epoch: 1, tree: pub.Tree})

	prep := s.PrepareRotate(PrepareRotateRequest{})
	if !prep.OK {
		t.Fatal(prep.Reason)
	}
	staged := rotationState{epoch: 1, tree: pub.Tree, staged: prep.Tree}
	refused("commit of another epoch", RotateRequest{Epoch: prep.Epoch + 1}, staged)
	core.failNext = true
	refused("commit the core refused", RotateRequest{Epoch: prep.Epoch}, staged)

	var reports []WorkerReport
	for i := range 4 {
		reports = append(reports, WorkerReport{WorkerID: fmt.Sprint("w", i), Code: []byte(prep.Tree.CodeOf(i))})
	}
	if resp := s.Rotate(RotateRequest{Epoch: prep.Epoch, Reports: reports}); !resp.OK || resp.Rotated != 4 {
		t.Fatalf("commit after the refusals: %+v", resp)
	}
	after := rotationState{epoch: 2, tree: prep.Tree, rotations: 1, rotated: 4}
	refused("a second commit of one staging", RotateRequest{Epoch: prep.Epoch}, after)
}

// TestPrepareRotateReplacesStaged: a second prepare for the same epoch
// replaces the first's tree, and the commit serves the second.
func TestPrepareRotateReplacesStaged(t *testing.T) {
	s := newTestServer(t)
	p1 := s.PrepareRotate(PrepareRotateRequest{Seed: 1})
	p2 := s.PrepareRotate(PrepareRotateRequest{Seed: 2})
	if !p1.OK || !p2.OK || p1.Epoch != p2.Epoch || p1.Tree == p2.Tree {
		t.Fatalf("re-prepare: %+v then %+v", p1, p2)
	}
	if got := rotationOf(t, s); got.staged != p2.Tree {
		t.Fatal("re-prepare did not replace the staged tree")
	}
	if resp := s.Rotate(RotateRequest{Epoch: p1.Epoch + 5}); resp.OK {
		t.Fatal("commit of a mismatched epoch accepted")
	}
	if resp := s.Rotate(RotateRequest{Epoch: p1.Epoch}); !resp.OK {
		t.Fatal(resp.Reason)
	}
	if got := rotationOf(t, s); got.tree != p2.Tree || got.epoch != p2.Epoch {
		t.Fatalf("the commit serves %+v, not the second prepare's tree", got)
	}
}

// TestRotatePrepareLosesToCommit is the prepare that loses to a commit: a refit's
// epoch and histogram are read in one hold of mu, and a tree built from
// them after a commit moved the epoch is refused at staging — the serving
// epoch and whatever is staged stay as they were — so no epoch's tree is
// ever carved from an earlier epoch's reports.
func TestRotatePrepareLosesToCommit(t *testing.T) {
	s := newTestServer(t)
	registerN(t, s, 12)
	next, points, hist := s.rotationInputs(true)
	s.mu.Lock()
	live := s.refitHistogram()
	s.mu.Unlock()
	if next != 2 || fmt.Sprint(hist) != fmt.Sprint(live) {
		t.Fatalf("inputs for epoch %d with histogram %v, want 2 and %v", next, hist, live)
	}
	stale, err := hst.BuildEpoch(points, 42, next, 0, hist)
	if err != nil {
		t.Fatal(err)
	}

	// A rotation commits while the tree is built.
	report := rotReporter(rng.New(9))
	if resp := s.RotateNow(PrepareRotateRequest{}, nil, report); !resp.OK {
		t.Fatal(resp.Reason)
	}
	served := rotationOf(t, s)
	if err := s.stage(next, stale); err == nil || !strings.Contains(err.Error(), "committed while preparing") {
		t.Fatalf("a tree for epoch %d staged at epoch %d: %v", next, served.epoch, err)
	}
	if got := rotationOf(t, s); got != served {
		t.Fatalf("the refused staging moved the server from %+v to %+v", served, got)
	}

	// With the next rotation staged, a stale staging keeps it.
	prep := s.PrepareRotate(PrepareRotateRequest{Refit: true})
	if !prep.OK || prep.Epoch != 3 {
		t.Fatalf("prepare: %+v", prep)
	}
	served = rotationOf(t, s)
	if err := s.stage(next, stale); err == nil {
		t.Fatal("a stale tree replaced the staged one")
	}
	if got := rotationOf(t, s); got != served || got.staged != prep.Tree {
		t.Fatalf("the refused staging moved the server from %+v to %+v", served, got)
	}
	if resp := s.Rotate(RotateRequest{Epoch: prep.Epoch}); !resp.OK {
		t.Fatal(resp.Reason)
	}
}
