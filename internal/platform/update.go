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
	if req.Epoch != 0 && req.Epoch != s.pub.Epoch {
		return refusal(staleEpochError(req.Epoch, s.pub.Epoch))
	}
	if err := s.pub.Tree.CheckCode(code); err != nil {
		return refusal(badRequestError(err.Error()))
	}
	slot, ok := s.tab.lookup(req.WorkerID)
	if !ok {
		return s.unknownWorker(req.WorkerID)
	}
	rec := s.tab.at(slot)
	switch rec.state() {
	case stateGone, stateAssignedGone:
		return refusal(conflictError(fmt.Sprintf("platform: worker %q has withdrawn", req.WorkerID)))
	case stateParked:
		return refusal(parkedError(req.WorkerID))
	case stateAssigned:
		return refusal(conflictError(fmt.Sprintf("platform: worker %q already assigned", req.WorkerID)))
	}
	return s.move(slot, rec, req.WorkerID, code, 0)
}
