package platform

import (
	"fmt"
	"strings"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
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
//     epoch's slot table is built from 0, the engine's index is
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
// previously staged rotation. The tree is hst.BuildEpoch's, reseeded by
// req.Seed when that is non-zero. It is built outside mu from the epoch and
// refit histogram that one hold of mu read, and staged only if no commit
// has moved the epoch since.
func (s *Server) PrepareRotate(req PrepareRotateRequest) PrepareRotateResponse {
	next, points, hist := s.rotationInputs(req.Refit)
	tree, err := hst.BuildEpoch(points, s.seed, next, req.Seed, hist)
	if err == nil {
		err = s.stage(next, tree)
	}
	if err != nil {
		reason := fmt.Sprintf("platform: prepare %d: %v", next, err)
		return PrepareRotateResponse{OK: false, Reason: reason, Err: conflictError(reason)}
	}
	return PrepareRotateResponse{OK: true, Epoch: next, Tree: tree}
}

// rotationInputs reads, in one hold of mu, what the next epoch's tree is
// built from: its epoch id, the points and, for a refit, the histogram.
func (s *Server) rotationInputs(refit bool) (next int64, points []geo.Point, hist []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if refit {
		hist = s.refitHistogram()
	}
	return s.pub.Epoch + 1, s.pub.Tree.Points(), hist
}

// stage stages tree as epoch next, unless a commit has moved the serving
// epoch since next was read.
func (s *Server) stage(next int64, tree *hst.Tree) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pub.Epoch+1 != next {
		return fmt.Errorf("rotation to epoch %d committed while preparing", s.pub.Epoch)
	}
	s.staged = tree
	return nil
}

// refitHistogram counts what a refit orders the next tree's carving by: the
// live population's latest reports. Each live stint — available, or busy
// with a task and due back — counts one report at the predefined point of
// its latest code, when that code is of the serving epoch (a stint carried
// busy into it has none until it releases) and sits on a real leaf. A
// stint counts once however often it re-reported, and a withdrawn, parked
// or superseded one not at all. The caller holds mu.
// Packed codes are equal exactly when codes are, so a report is looked up
// as it sits in the slab, among the real leaves' codes packed once a call.
func (s *Server) refitHistogram() []int {
	t, tree := s.tab, s.pub.Tree
	hist := make([]int, tree.NumPoints())
	points, buf := make(map[string]int32, len(hist)), make([]byte, t.codeLen)
	for p := range hist {
		t.pack(buf, tree.CodeOf(p))
		points[string(buf)] = int32(p)
	}
	for slot := 0; slot < t.n; slot++ {
		if st := t.at(slot).state(); st != stateAvailable && st != stateAssigned || t.lag(slot) != 0 {
			continue
		}
		if p, ok := points[string(t.packed(slot))]; ok {
			hist[p]++
		}
	}
	return hist
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
	tree, epoch := s.staged, s.pub.Epoch+1
	if tree == nil {
		reason := "platform: no rotation staged; call PrepareRotate first"
		return RotateResponse{OK: false, Reason: reason, Err: conflictError(reason)}
	}
	if req.Epoch != 0 && req.Epoch != epoch {
		reason := fmt.Sprintf("platform: rotation commit for epoch %d, staged is %d", req.Epoch, epoch)
		return RotateResponse{OK: false, Reason: reason, Err: conflictError(reason)}
	}

	// Resolve each report to its slot once; everything after is indexed by
	// slot. Only currently-available workers rotate, first report per
	// worker wins (reported marks the slots already taken).
	old := s.tab
	resp := RotateResponse{Epoch: epoch}
	reported := make([]bool, old.len())
	slots := make([]int, 0, len(req.Reports))
	names := make([]string, 0, len(req.Reports))
	codes := make([]hst.Code, 0, len(req.Reports))
	for _, r := range req.Reports {
		slot, known := old.lookup(r.WorkerID)
		code := codeView(r.Code) // copied into the next table below
		if !known || reported[slot] || old.at(slot).state() != stateAvailable ||
			tree.CheckCode(code) != nil {
			resp.Skipped++
			continue
		}
		reported[slot] = true
		slots = append(slots, slot)
		names = append(names, r.WorkerID)
		codes = append(codes, code)
	}

	// Build the next epoch's table beside the serving one, which stays
	// untouched until the swap succeeded — a failed swap must leave the old
	// epoch fully intact. Carried stints first: their outstanding tasks
	// keep running and release against the new slot, their reports an epoch
	// further behind and their old-tree codes left with the old table.
	// leaving collects the slots whose id drops out of the table with a
	// ledger cell to keep.
	var carry, leaving []int
	for slot := 0; slot < old.len(); slot++ {
		switch old.at(slot).state() {
		case stateAssigned, stateAssignedGone:
			carry = append(carry, slot)
		case stateAvailable:
			if reported[slot] {
				continue // rotates or parks below, in report order
			}
			// No usable report: dropped. Its engine entry vanishes with the
			// old index and the stint closes like a withdrawal, so the
			// worker may register back later with a fresh spend. A
			// capacitated one still owes completions: it finishes them
			// offline and goes fully gone at its last Release.
			resp.Dropped = append(resp.Dropped, old.id(slot))
			if old.units(slot).active > 0 {
				carry = append(carry, slot)
			} else {
				leaving = append(leaving, slot)
			}
		case stateGone, stateParked:
			leaving = append(leaving, slot)
		}
	}
	next := newSlotTable(len(carry)+len(slots), tree.Depth(), tree.Degree(), epoch)
	next.lags = make([]int64, 0, len(carry))
	for _, slot := range carry {
		st := old.at(slot).state()
		if st == stateAvailable {
			st = stateAssignedGone // dropped with completions owed
		}
		next.adopt(old, slot, st, old.lag(slot)+epoch-old.epoch, "")
	}
	// Then the rotated workers, in report order. A capacitated worker
	// carries its remaining units (capacity − active) into the new epoch.
	carried := next.len()
	for i, name := range names {
		if old.at(slots[i]).reports() >= s.maxReports {
			resp.Parked = append(resp.Parked, name)
			leaving = append(leaving, slots[i])
			continue
		}
		next.adopt(old, slots[i], stateAvailable, 0, codes[i])
	}
	resp.Rotated = next.len() - carried

	// The core takes the population as a replayable sequence: the rotated
	// slots of the finished next table, which nothing mutates until the
	// swap returned, so concurrent iterations only read. A generator
	// instead of a []EpochInsert lets an engine rotate a 10M-worker
	// population — or a cluster core partition it across nodes — without
	// materializing a second copy beside the table. Each iteration decodes
	// into a buffer of its own, and a code it yields holds until the yield
	// returns (Core's contract).
	populate := func(yield func(engine.EpochInsert) bool) {
		var buf []byte
		for slot := carried; slot < next.len(); slot++ {
			u := next.units(slot)
			if !yield(engine.EpochInsert{Code: next.code(slot, &buf), ID: slot, Cap: int(u.capacity - u.active)}) {
				return
			}
		}
	}
	if err := s.eng.SwapEpochSeq(epoch, tree, 0, populate); err != nil {
		// A cluster core aborts the distributed prepare on every node before
		// reporting failure, so the old epoch keeps serving intact — and no
		// report has been charged.
		return RotateResponse{OK: false, Reason: err.Error(), Err: AsError(err, s.pub.Epoch)}
	}

	// The swap is live: charge the accepted reports, keep the ledger cells
	// of the ids that left — under ids of their own, not views that would
	// keep the old table's slab alive — and flip table and epoch together.
	// An id that leaves at its limit can never report again, so it leaves
	// parked: counted now unless it parked in the table.
	for slot := carried; slot < next.len(); slot++ {
		s.charge(next.at(slot))
	}
	for _, slot := range leaving {
		rec := old.at(slot)
		if rec.reports() >= s.maxReports && rec.state() != stateParked {
			s.parked++
		}
		if rec.reports() > 0 {
			s.departed[strings.Clone(old.id(slot))] = rec.reports()
		}
	}
	s.rotations++
	s.rotated += resp.Rotated
	s.dropped += len(resp.Dropped)
	s.tab, s.staged = next, nil
	s.pub.Tree, s.pub.Epoch = tree, epoch
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
			if s.tab.at(slot).state() == stateAvailable {
				workers = append(workers, s.tab.id(slot))
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
