package platform

import (
	"fmt"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
)

// Epoch rotation: the server periodically republishes a fresh HST and
// re-noises the live worker population without stopping assignment. The
// protocol is two-phase so the expensive part happens while the old epoch
// keeps serving:
//
//  1. PrepareRotate builds and stages the next epoch's tree in the
//     background and hands it to the operator, who distributes it to
//     workers for client-side re-obfuscation.
//  2. Rotate commits: each listed fresh report spends its worker's
//     lifetime budget (exhausted workers are parked), every rotated worker
//     gets a fresh slot, and the engine's shard set is swapped atomically.
//     Available workers without a fresh report are dropped (their old
//     codes are meaningless under the new tree; they may register back
//     later). Busy workers keep their assignment and re-report under the
//     new tree at Release.
//
// In-flight Submit pops against the old epoch observe their popped slot
// superseded (retired, parked, or dropped) and retry against the new shard
// set — the same staleness rule that governs withdraw races — so no task
// is ever paired with a worker from a different epoch.

// PrepareRotate stages epoch N+1 while N keeps serving. The staged tree is
// returned for clients to re-obfuscate under; re-preparing replaces a
// previously staged rotation.
func (s *Server) PrepareRotate(req PrepareRotateRequest) PrepareRotateResponse {
	staged, err := s.rot.Prepare(req.Seed, req.Refit)
	if err != nil {
		return PrepareRotateResponse{OK: false, Reason: err.Error(), Err: conflictError(err.Error())}
	}
	return PrepareRotateResponse{OK: true, Epoch: staged.Epoch, Tree: staged.Tree}
}

// Rotate commits a staged rotation with the fresh reports collected from
// workers. Reports for workers that are unknown, busy, or already offline
// are skipped (busy workers keep serving their assignment and re-report at
// Release). The commit is atomic with respect to every other server
// operation: after it returns, the server publishes the new tree and no
// assignment can pair codes from different epochs.
func (s *Server) Rotate(req RotateRequest) RotateResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	staged := s.rot.StagedRotation()
	if staged == nil {
		reason := "platform: no rotation staged; call PrepareRotate first"
		return RotateResponse{OK: false, Reason: reason, Err: conflictError(reason)}
	}
	if req.Epoch != 0 && req.Epoch != staged.Epoch {
		reason := fmt.Sprintf("platform: rotation commit for epoch %d, staged is %d", req.Epoch, staged.Epoch)
		return RotateResponse{OK: false, Reason: reason, Err: conflictError(reason)}
	}

	// Filter to currently-available workers, first report per worker wins.
	resp := RotateResponse{Epoch: staged.Epoch}
	names := make([]string, 0, len(req.Reports))
	codeOf := make(map[string]hst.Code, len(req.Reports))
	for _, r := range req.Reports {
		slot, known := s.byID[r.WorkerID]
		if _, dup := codeOf[r.WorkerID]; dup || !known || s.states[slot] != stateAvailable ||
			staged.Tree.CheckCode(hst.Code(r.Code)) != nil {
			resp.Skipped++
			continue
		}
		names = append(names, r.WorkerID)
		codeOf[r.WorkerID] = hst.Code(r.Code)
	}

	// Planning against the staging read above: if a concurrent
	// PrepareRotate replaced it, the plan is refused (before any budget is
	// spent) rather than committing reports validated against one tree
	// under another.
	plan, err := s.rot.PlanRotation(staged, names, func(w string, _ *hst.Tree) (hst.Code, error) {
		return codeOf[w], nil
	})
	if err != nil {
		return RotateResponse{OK: false, Reason: err.Error(), Err: conflictError(err.Error())}
	}

	// Stage the new population with slot numbers pre-allocated in report
	// order, swap the engine, and only then mutate the tables — a failed
	// swap must leave the old epoch fully intact. A capacitated worker
	// carries its remaining units (capacity − active) into the new epoch;
	// its outstanding tasks keep running and release against the new slot.
	//
	// The core takes the population as a replayable sequence: the inserts
	// derive deterministically from the plan and the slot tables (both
	// frozen under mu here, so concurrent iterations only read), and a
	// generator instead of a []EpochInsert lets an engine rotate a
	// 10M-worker population — or a cluster core partition it across nodes —
	// without materializing a second copy beside the live one.
	base := len(s.workerIDs)
	populate := func(yield func(engine.EpochInsert) bool) {
		n := 0
		for i := range plan.Outcomes {
			if plan.Outcomes[i].Parked {
				continue
			}
			old := s.byID[plan.Outcomes[i].Worker]
			in := engine.EpochInsert{
				Code: plan.Outcomes[i].Code,
				ID:   base + n,
				Cap:  s.capacity[old] - s.active[old],
			}
			n++
			if !yield(in) {
				return
			}
		}
	}
	if err := s.eng.SwapEpochSeq(plan.Epoch, plan.Tree, 0, populate); err != nil {
		// A cluster core aborts the distributed prepare on every node before
		// reporting failure, so the old epoch keeps serving intact.
		return RotateResponse{OK: false, Reason: err.Error(), Err: AsError(err, s.epoch)}
	}

	// The swap is live: record the new slots and close out the old epoch's
	// available population. An in-flight pop of an old slot now reads a
	// superseded state under mu and retries against the new shard set.
	for i := range plan.Outcomes {
		o := &plan.Outcomes[i]
		old := s.byID[o.Worker]
		if o.Parked {
			s.states[old] = stateParked
			resp.Parked = append(resp.Parked, o.Worker)
			continue
		}
		slot := len(s.workerIDs)
		s.workerIDs = append(s.workerIDs, o.Worker)
		s.codes = append(s.codes, o.Code)
		s.states = append(s.states, stateAvailable)
		s.slotEpoch = append(s.slotEpoch, plan.Epoch)
		// The new slot inherits the stint's capacity accounting: tasks
		// assigned before the rotation release against it.
		s.capacity = append(s.capacity, s.capacity[old])
		s.active = append(s.active, s.active[old])
		s.active[old] = 0
		s.byID[o.Worker] = slot
		s.states[old] = stateRetired
		resp.Rotated++
	}
	// Available workers with no fresh report: dropped. (Every rotated or
	// parked slot was just moved off stateAvailable above, so whatever is
	// still available below base had no usable report.) Their engine
	// entries vanished with the old shard set; the slot is closed like a
	// withdrawal, so the worker may register back later with a fresh spend.
	for slot := 0; slot < base; slot++ {
		if s.states[slot] == stateAvailable {
			if s.active[slot] > 0 {
				// A capacitated dropped worker still owes completions: it
				// finishes them offline and goes fully gone at its last
				// Release, exactly like a withdrawal.
				s.states[slot] = stateAssignedGone
			} else {
				s.states[slot] = stateGone
			}
			s.dropped++
			resp.Dropped = append(resp.Dropped, s.workerIDs[slot])
		}
	}

	if err := s.rot.Commit(plan); err != nil {
		// Unreachable: the staged rotation is checked above and mu
		// serialises commits. Surface it rather than serving half-rotated.
		panic(fmt.Sprintf("platform: rotation commit: %v", err))
	}
	s.epoch = plan.Epoch
	s.pub.Tree = plan.Tree
	s.pub.Epoch = plan.Epoch
	resp.OK = true
	return resp
}

// RotateNow runs both rotation phases in one step for in-process callers
// (tests, the simulator, single-binary deployments): it stages the next
// epoch, collects a fresh report for every listed worker through the
// report callback — client-side code, invoked with the staged tree — and
// commits. workers lists the population to rotate in a caller-chosen,
// deterministic order; nil rotates every available worker in slot order. A
// report error drops that worker (as if it had not re-reported).
func (s *Server) RotateNow(req PrepareRotateRequest, workers []string, report func(workerID string, tree *hst.Tree) (hst.Code, error)) RotateResponse {
	prep := s.PrepareRotate(req)
	if !prep.OK {
		return RotateResponse{OK: false, Reason: prep.Reason, Err: prep.Err}
	}
	if workers == nil {
		s.mu.Lock()
		for slot, st := range s.states {
			if st == stateAvailable {
				workers = append(workers, s.workerIDs[slot])
			}
		}
		s.mu.Unlock()
	}
	reports := make([]WorkerReport, 0, len(workers))
	for _, w := range workers {
		code, err := report(w, prep.Tree)
		if err != nil {
			continue
		}
		reports = append(reports, WorkerReport{WorkerID: w, Code: []byte(code)})
	}
	return s.Rotate(RotateRequest{Epoch: prep.Epoch, Reports: reports})
}
