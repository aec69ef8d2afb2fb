package privacy

import (
	"errors"
	"fmt"
	"sync"
)

// ErrBudgetExhausted is wrapped by Spend when a report would push an agent
// past its lifetime budget. Serving layers match it to park the agent
// instead of silently re-noising.
var ErrBudgetExhausted = errors.New("privacy: lifetime budget exhausted")

// Budget is the lifetime-ε charge rule and its totals, for owners that keep
// each agent's running spend themselves: the cell lives wherever the agent's
// other state does (a server's worker record, a simulator's dense array) and
// Budget only decides whether one more report fits and keeps the grand
// totals. It is not safe for concurrent use; the owner's lock covers it
// together with the cells.
type Budget struct {
	limit  float64
	total  float64 // Σ of every cell; conserved by construction
	agents int     // cells that have been charged at least once
}

// NewBudget returns the charge rule for a lifetime ε budget per agent.
func NewBudget(limit float64) (*Budget, error) {
	if limit <= 0 {
		return nil, fmt.Errorf("%w (lifetime budget %v)", ErrBadEpsilon, limit)
	}
	return &Budget{limit: limit}, nil
}

// Limit returns the lifetime budget.
func (b *Budget) Limit() float64 { return b.limit }

// Affords reports whether an agent that has spent this much can pay for one
// more report of eps.
func (b *Budget) Affords(spent, eps float64) bool {
	return spent+eps <= b.limit+1e-12
}

// Charge records one report of eps on the agent's cell. The caller has
// checked Affords; Charge itself never refuses.
func (b *Budget) Charge(cell *float64, eps float64) {
	if *cell == 0 {
		b.agents++
	}
	*cell += eps
	b.total += eps
}

// Total returns the sum of every charge.
func (b *Budget) Total() float64 { return b.total }

// Agents returns the number of cells charged at least once.
func (b *Budget) Agents() int { return b.agents }

// Accountant tracks cumulative Geo-Indistinguishability budget per agent
// under sequential composition: each report of (a perturbation of) the same
// location adds its ε to the agent's total, and the accountant refuses
// reports that would exceed the agent's lifetime budget. It is Budget with
// the cells kept in a map keyed by agent id, for callers with no worker
// table of their own (a client keeping its own lifetime books).
//
// The paper's model is one-shot (every worker and task reports once), so
// the evaluation never composes; a deployed platform, where workers
// re-report as they move, needs exactly this bookkeeping to keep the
// advertised guarantee meaningful.
type Accountant struct {
	mu     sync.Mutex
	budget Budget
	spent  map[string]float64
}

// NewAccountant returns an accountant enforcing a lifetime ε budget per
// agent id.
func NewAccountant(limit float64) (*Accountant, error) {
	b, err := NewBudget(limit)
	if err != nil {
		return nil, err
	}
	return &Accountant{budget: *b, spent: map[string]float64{}}, nil
}

// Limit returns the lifetime budget.
func (a *Accountant) Limit() float64 { return a.budget.limit }

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
	if !a.budget.Affords(cell, eps) {
		return fmt.Errorf("%w: agent %q spent %.4g of %.4g, requested %.4g",
			ErrBudgetExhausted, agentID, cell, a.budget.limit, eps)
	}
	a.budget.Charge(&cell, eps)
	a.spent[agentID] = cell
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
	return a.budget.agents
}

// Remaining returns the budget the agent has left.
func (a *Accountant) Remaining(agentID string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.budget.limit - a.spent[agentID]
	if r < 0 {
		return 0
	}
	return r
}
