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
//  2. Rotate commits: each listed fresh report is checked against its
//     worker's lifetime budget (exhausted workers are parked), the next
//     epoch's slot table is built from 0, the engine's shard set is
//     swapped atomically, and table and epoch flip together. Available
//     workers without a fresh report are dropped (their old codes are
//     meaningless under the new tree; they may register back later). Busy
//     workers keep their assignment and re-report under the new tree at
//     Release.
//
// A rotation is also the one moment every engine id is reissued anyway, so
// it is where the slot space is compacted: the next table holds the carried
// stints (busy, or withdrawn with tasks still running) first, in old slot
// order, then the rotated workers in report order — the same relative order
// the ids had before, so every "lowest registration id wins" tie-break is
// unchanged — and nothing else. Stints closed during the epoch (withdrawn,
// superseded, parked, dropped) are gone with the old table; an id's
// lifetime spend survives in the departed ledger. The slot space is thereby
// bounded by live workers plus one epoch's churn, however long the server
// runs.
//
// Submit holds the rotation gate across its pop and bookkeeping and the
// commit holds it exclusively, so a popped slot number is never read
// against the renumbered table and no task is ever paired with a worker
// from a different epoch.

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
	s.gate.Lock()
	defer s.gate.Unlock()
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

	// Resolve each report to its slot once; everything after is indexed by
	// slot. Only currently-available workers rotate, first report per
	// worker wins (reported marks the slots already taken).
	old := s.tab
	resp := RotateResponse{Epoch: staged.Epoch}
	reported := make([]bool, old.len())
	slots := make([]int, 0, len(req.Reports))
	names := make([]string, 0, len(req.Reports))
	codes := make([]hst.Code, 0, len(req.Reports))
	for _, r := range req.Reports {
		slot, known := old.lookup(r.WorkerID)
		code := codeView(r.Code) // copied into the next table below
		if !known || reported[slot] || old.at(slot).state != stateAvailable ||
			staged.Tree.CheckCode(code) != nil {
			resp.Skipped++
			continue
		}
		reported[slot] = true
		slots = append(slots, slot)
		names = append(names, r.WorkerID)
		codes = append(codes, code)
	}

	// Planning against the staging read above: if a concurrent
	// PrepareRotate replaced it, the plan is refused rather than committing
	// reports validated against one tree under another.
	k := 0
	plan, err := s.rot.PlanRotation(staged, names, func(string, *hst.Tree) (hst.Code, error) {
		k++
		return codes[k-1], nil
	})
	if err != nil {
		return RotateResponse{OK: false, Reason: err.Error(), Err: conflictError(err.Error())}
	}

	// Build the next epoch's table beside the serving one, which stays
	// untouched until the swap succeeded — a failed swap must leave the old
	// epoch fully intact. Carried stints first: their outstanding tasks
	// keep running and release against the new slot, their reports an epoch
	// further behind and their old-tree codes left with the old table.
	// leaving collects the slots whose id drops out of the table with a
	// ledger cell to keep.
	next := newSlotTable(len(slots), plan.Tree.Depth(), plan.Epoch)
	carry := func(rec record) {
		rec.lag += uint32(plan.Epoch - old.epoch)
		next.add(rec, "")
	}
	var leaving []int
	for slot := 0; slot < old.len(); slot++ {
		rec := old.at(slot)
		switch rec.state {
		case stateAssigned, stateAssignedGone:
			carry(*rec)
		case stateAvailable:
			if reported[slot] {
				continue // rotates or parks below, in report order
			}
			// No usable report: dropped. Its engine entry vanishes with the
			// old shard set and the stint closes like a withdrawal, so the
			// worker may register back later with a fresh spend. A
			// capacitated one still owes completions: it finishes them
			// offline and goes fully gone at its last Release.
			resp.Dropped = append(resp.Dropped, rec.id)
			if rec.active > 0 {
				gone := *rec
				gone.state = stateAssignedGone
				carry(gone)
			} else {
				leaving = append(leaving, slot)
			}
		case stateGone, stateParked:
			leaving = append(leaving, slot)
		}
	}
	// Then the rotated workers, in report order. A capacitated worker
	// carries its remaining units (capacity − active) into the new epoch.
	carried := next.len()
	for i := range plan.Outcomes {
		o := &plan.Outcomes[i]
		rec := old.at(slots[i])
		if s.rot.Afford(o.Worker, rec.spent) != nil {
			o.Parked = true
			resp.Parked = append(resp.Parked, o.Worker)
			leaving = append(leaving, slots[i])
			continue
		}
		next.add(*rec, o.Code)
	}
	resp.Rotated = next.len() - carried

	// The core takes the population as a replayable sequence: the rotated
	// slots of the finished next table, which nothing mutates until the
	// swap returned, so concurrent iterations only read. A generator
	// instead of a []EpochInsert lets an engine rotate a 10M-worker
	// population — or a cluster core partition it across nodes — without
	// materializing a second copy beside the table.
	populate := func(yield func(engine.EpochInsert) bool) {
		for slot := carried; slot < next.len(); slot++ {
			rec := next.at(slot)
			if !yield(engine.EpochInsert{Code: next.code(slot), ID: slot, Cap: int(rec.capacity - rec.active)}) {
				return
			}
		}
	}
	if err := s.eng.SwapEpochSeq(plan.Epoch, plan.Tree, 0, populate); err != nil {
		// A cluster core aborts the distributed prepare on every node before
		// reporting failure, so the old epoch keeps serving intact — and no
		// report has been charged.
		return RotateResponse{OK: false, Reason: err.Error(), Err: AsError(err, s.epoch)}
	}

	// The swap is live: charge the accepted reports, keep the ledger cells
	// of the ids that left, and flip table and epoch together.
	for slot := carried; slot < next.len(); slot++ {
		s.rot.Charge(&next.at(slot).spent)
	}
	for _, slot := range leaving {
		if rec := old.at(slot); rec.spent > 0 {
			s.departed[rec.id] = rec.spent
		}
	}
	if err := s.rot.Commit(plan); err != nil {
		// Unreachable: the staged rotation is checked above and mu
		// serialises commits. Surface it rather than serving half-rotated.
		panic(fmt.Sprintf("platform: rotation commit: %v", err))
	}
	s.dropped += len(resp.Dropped)
	s.tab = next
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
		for slot := 0; slot < s.tab.len(); slot++ {
			if rec := s.tab.at(slot); rec.state == stateAvailable {
				workers = append(workers, rec.id)
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
