package platform

import (
	"fmt"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/privacy"
)

// Location updates. The paper's model is one-shot: every agent reports one
// obfuscated location. A deployed platform has workers that move and
// re-report, and each re-report of a (correlated) location spends privacy
// budget under sequential composition. This file adds both halves:
// server-side re-registration and a client-side obfuscator that refuses to
// exceed a lifetime budget.

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

// BudgetedObfuscator is a client-side privacy stack with lifetime budget
// accounting: every obfuscation of the agent's location spends the
// publication's ε, and calls beyond the lifetime budget fail instead of
// silently degrading the guarantee.
type BudgetedObfuscator struct {
	agentID string
	inner   *Obfuscator
	eps     float64
	acct    *privacy.Accountant
}

// NewBudgetedObfuscator wraps the client-side stack for one agent with a
// lifetime ε budget.
func NewBudgetedObfuscator(agentID string, pub Publication, lifetime float64, seed uint64) (*BudgetedObfuscator, error) {
	inner, err := NewObfuscator(pub, seed)
	if err != nil {
		return nil, err
	}
	acct, err := privacy.NewAccountant(lifetime)
	if err != nil {
		return nil, err
	}
	return &BudgetedObfuscator{
		agentID: agentID,
		inner:   inner,
		eps:     pub.Epsilon,
		acct:    acct,
	}, nil
}

// Obfuscate spends ε from the lifetime budget and reports the obfuscated
// leaf, or fails when the budget is exhausted.
func (b *BudgetedObfuscator) Obfuscate(p geo.Point) (hst.Code, error) {
	if err := b.acct.Spend(b.agentID, b.eps); err != nil {
		return "", err
	}
	return b.inner.Obfuscate(p), nil
}

// Remaining returns the unspent lifetime budget.
func (b *BudgetedObfuscator) Remaining() float64 {
	return b.acct.Remaining(b.agentID)
}

// MoveTo re-reports a worker's location through a budgeted obfuscator: it
// obfuscates the new true location (spending budget) and re-registers the
// result with the server.
func (w Worker) MoveTo(backend interface {
	Reregister(ReregisterRequest) RegisterResponse
}, b *BudgetedObfuscator, newLoc geo.Point) error {
	code, err := b.Obfuscate(newLoc)
	if err != nil {
		return fmt.Errorf("platform: %w", err)
	}
	resp := backend.Reregister(ReregisterRequest{WorkerID: w.ID, Code: []byte(code)})
	if !resp.OK {
		return fmt.Errorf("platform: reregistration of %q failed: %s", w.ID, resp.Reason)
	}
	return nil
}
