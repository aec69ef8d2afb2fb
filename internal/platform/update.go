package platform

import "fmt"

// Location updates. The paper's model is one-shot: every agent reports one
// obfuscated location. A deployed platform has workers that move and
// re-report, and each re-report of a (correlated) location spends privacy
// budget under sequential composition. This file is the server side:
// re-registration, charged against the worker's lifetime budget.

// ReregisterRequest replaces a worker's reported leaf.
type ReregisterRequest struct {
	WorkerID string `json:"worker_id"`
	Code     []byte `json:"code"`
	// Epoch tags the publication the code was obfuscated under; 0 accepts
	// the serving epoch.
	Epoch int64 `json:"epoch,omitempty"`
}

// Reregister updates an available worker's reported location. Workers that
// are already assigned cannot move their report (the assignment already
// happened); unknown workers are rejected. A capacitated worker moves
// wholesale, as at a Release with a fresh code: the units it still has
// pooled follow the fresh leaf, no more and no fewer. An update is a fresh
// report: with a lifetime budget configured it spends the publication's ε,
// and a worker that cannot afford it is parked — removed from the pool —
// rather than silently re-noised.
func (s *Server) Reregister(req ReregisterRequest) RegisterResponse {
	code := codeView(req.Code)
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Epoch != 0 && req.Epoch != s.epoch {
		return refusal(staleEpochError(req.Epoch, s.epoch))
	}
	if err := s.pub.Tree.CheckCode(code); err != nil {
		return refusal(badRequestError(err.Error()))
	}
	slot, ok := s.tab.lookup(req.WorkerID)
	if !ok {
		return s.unknownWorker(req.WorkerID)
	}
	rec := s.tab.at(slot)
	switch rec.state {
	case stateGone, stateAssignedGone:
		return refusal(conflictError(fmt.Sprintf("platform: worker %q has withdrawn", req.WorkerID)))
	case stateParked:
		return refusal(parkedError(req.WorkerID))
	case stateAssigned:
		return refusal(conflictError(fmt.Sprintf("platform: worker %q already assigned", req.WorkerID)))
	}
	old := s.tab.code(slot)
	pooled, ok := s.eng.RemoveUnits(old, slot)
	if !ok {
		// A concurrent Submit popped the worker between its engine pop and
		// its table update (which waits on mu): the assignment wins.
		return refusal(conflictError(fmt.Sprintf("platform: worker %q already assigned", req.WorkerID)))
	}
	if s.rot.Afford(req.WorkerID, rec.spent) != nil {
		// The fresh report is unaffordable. The old report was already
		// withdrawn from the engine above, and it is not restored: the
		// worker is parked — out of the pool for good — instead of being
		// re-noised past its guarantee.
		rec.state = stateParked
		return refusal(parkedError(req.WorkerID))
	}
	if err := s.eng.InsertCapEpoch(code, slot, pooled, s.epoch); err != nil {
		// The engine refused the fresh report: restore the old one so the
		// worker is not lost from the pool. Nothing was charged, so the
		// client can retry.
		_ = s.eng.InsertCapEpoch(old, slot, pooled, s.epoch)
		return refusal(AsError(err, s.epoch))
	}
	s.tab.setCode(slot, code)
	s.rot.Charge(&rec.spent)
	s.rot.Observe(code)
	return RegisterResponse{OK: true, Epoch: s.epoch}
}
