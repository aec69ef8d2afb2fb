package privacy

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrBudgetExhausted is wrapped by Spend when a report would push an agent
// past its lifetime budget. Serving layers match it to park the agent
// instead of silently re-noising.
var ErrBudgetExhausted = errors.New("privacy: lifetime budget exhausted")

// MaxReports is the most reports a worker's ledger count holds: 2^28−1,
// 8.5 years at one a second, so an owner may pack a count into 28 bits. A
// worker whose count is there is refused as if its budget had run out; a
// count never wraps.
const MaxReports = 1<<28 - 1

// ReportLimit is the lifetime-ε charge rule of an owner that keeps each
// worker's ledger as a count of charged reports (a platform slot record),
// closed-form: a worker that has had count fresh reports charged affords
// one more exactly when count < ReportLimit(eps, lifetime), and one refused
// by that is parked.
// Every report spends the one eps, so the limit is ⌊(lifetime + 1e-12)/eps⌋
// — the count whose spend count·eps still fits the lifetime, within the
// 1e-12 that keeps an exact multiple (0.1 × 10 against 1.0) affordable, as
// Spend's — capped at MaxReports; with no lifetime budget (0) it is
// MaxReports alone. A lifetime below eps would refuse every report and is
// an error.
func ReportLimit(eps, lifetime float64) (uint32, error) {
	switch {
	case !(eps > 0):
		return 0, fmt.Errorf("%w (got %v)", ErrBadEpsilon, eps)
	case !(lifetime >= 0):
		return 0, fmt.Errorf("privacy: lifetime budget %v must be non-negative", lifetime)
	case lifetime == 0:
		return MaxReports, nil
	case lifetime < eps:
		return 0, fmt.Errorf("privacy: lifetime budget %v below per-report ε %v; every report would be refused",
			lifetime, eps)
	}
	return uint32(min(math.Floor((lifetime+1e-12)/eps), MaxReports)), nil
}

// Accountant tracks cumulative Geo-Indistinguishability budget per agent
// under sequential composition: each report of (a perturbation of) the same
// location adds its ε to the agent's total, and the accountant refuses
// reports that would exceed the agent's lifetime budget. Each agent's
// running spend is a cell of a map keyed by agent id: the accountant is for
// callers with no worker table of their own (a client keeping its own
// lifetime books).
//
// The paper's model is one-shot (every worker and task reports once), so
// the evaluation never composes; a deployed platform, where workers
// re-report as they move, needs exactly this bookkeeping to keep the
// advertised guarantee meaningful.
type Accountant struct {
	mu     sync.Mutex
	limit  float64
	total  float64 // Σ of every cell; conserved by construction
	agents int     // cells charged at least once
	spent  map[string]float64
}

// NewAccountant returns an accountant enforcing a lifetime ε budget per
// agent id.
func NewAccountant(limit float64) (*Accountant, error) {
	if limit <= 0 {
		return nil, fmt.Errorf("%w (lifetime budget %v)", ErrBadEpsilon, limit)
	}
	return &Accountant{limit: limit, spent: map[string]float64{}}, nil
}

// Limit returns the lifetime budget.
func (a *Accountant) Limit() float64 { return a.limit }

// Spend records a report with budget eps for the agent. It returns an
// error — and records nothing — when the agent's total would exceed the
// lifetime budget or eps is not positive.
func (a *Accountant) Spend(agentID string, eps float64) error {
	if eps <= 0 {
		return fmt.Errorf("%w (got %v)", ErrBadEpsilon, eps)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	cell := a.spent[agentID]
	if cell+eps > a.limit+1e-12 {
		return fmt.Errorf("%w: agent %q spent %.4g of %.4g, requested %.4g",
			ErrBudgetExhausted, agentID, cell, a.limit, eps)
	}
	if cell == 0 {
		a.agents++
	}
	a.total += eps
	a.spent[agentID] = cell + eps
	return nil
}

// Spent returns the budget the agent has consumed so far.
func (a *Accountant) Spent(agentID string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent[agentID]
}

// Agents returns the number of agents with recorded spend.
func (a *Accountant) Agents() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.agents
}

// Remaining returns the budget the agent has left.
func (a *Accountant) Remaining(agentID string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.limit - a.spent[agentID]
	if r < 0 {
		return 0
	}
	return r
}
