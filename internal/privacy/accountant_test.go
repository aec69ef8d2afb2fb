package privacy

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestAccountantValidation(t *testing.T) {
	if _, err := NewAccountant(0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewAccountant(-1); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestAccountantSequentialComposition(t *testing.T) {
	a, err := NewAccountant(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Spend("w1", 0.4); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend("w1", 0.6); err != nil {
		t.Fatal(err)
	}
	if got := a.Spent("w1"); got != 1.0 {
		t.Errorf("Spent = %v", got)
	}
	if got := a.Remaining("w1"); got != 0 {
		t.Errorf("Remaining = %v", got)
	}
	if err := a.Spend("w1", 0.01); err == nil {
		t.Error("over-budget spend accepted")
	}
	// A failed spend must not consume budget.
	if got := a.Spent("w1"); got != 1.0 {
		t.Errorf("failed spend changed total to %v", got)
	}
	// Other agents are independent.
	if err := a.Spend("w2", 0.9); err != nil {
		t.Errorf("independent agent rejected: %v", err)
	}
	if err := a.Spend("w1", -0.1); err == nil {
		t.Error("negative eps accepted")
	}
}

func TestAccountantExhaustionSentinel(t *testing.T) {
	a, err := NewAccountant(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Spend("w", 0.4); err != nil {
		t.Fatal(err)
	}
	err = a.Spend("w", 0.4)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("over-budget spend error %v does not wrap ErrBudgetExhausted", err)
	}
	// A malformed spend is a different failure, not an exhaustion.
	if err := a.Spend("w", 0); errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("zero-eps spend reported as exhaustion: %v", err)
	}
}

func TestAccountantTotalConservation(t *testing.T) {
	a, err := NewAccountant(2.0)
	if err != nil {
		t.Fatal(err)
	}
	// The accountant's grand total must equal the caller's own ledger of
	// successful spends exactly — failed spends contribute nothing.
	var ledger float64
	for i, sp := range []struct {
		id  string
		eps float64
	}{
		{"a", 0.6}, {"b", 1.9}, {"a", 0.6}, {"a", 0.9}, // last "a" spend fails (2.1 > 2)
		{"b", 0.2}, {"c", 2.0}, {"c", 0.1}, // "b" fails, then "c" fails
	} {
		if err := a.Spend(sp.id, sp.eps); err == nil {
			ledger += sp.eps
		} else if !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("spend %d: unexpected error %v", i, err)
		}
	}
	if got := a.budget.Total(); got != ledger {
		t.Errorf("budget total = %v, ledger says %v", got, ledger)
	}
	if got := a.Agents(); got != 3 {
		t.Errorf("Agents = %d, want 3", got)
	}
	// Per-agent totals never exceed the limit.
	for _, id := range []string{"a", "b", "c"} {
		if got := a.Spent(id); got > a.Limit()+1e-12 {
			t.Errorf("agent %s spent %v over limit %v", id, got, a.Limit())
		}
	}
}

func TestAccountantConcurrent(t *testing.T) {
	a, err := NewAccountant(100)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("agent-%d", g%2) // two contended agents
			for i := 0; i < 100; i++ {
				a.Spend(id, 0.1)
			}
		}(g)
	}
	wg.Wait()
	// 4 goroutines × 100 spends × 0.1 = 40 requested per agent; limit 100
	// admits all of them, and the total must be exact (no lost updates).
	for _, id := range []string{"agent-0", "agent-1"} {
		if got := a.Spent(id); got < 39.99 || got > 40.01 {
			t.Errorf("%s spent %v, want 40", id, got)
		}
	}
}
