package privacy

import (
	"errors"
	"math"
	"testing"

	"github.com/pombm/pombm/internal/rng"
)

func TestReportLimitValidation(t *testing.T) {
	for _, bad := range []struct{ eps, lifetime float64 }{
		{0, 0}, {-1, 1}, {math.NaN(), 1}, // ε must be positive
		{1, -1}, {1, math.NaN()}, // the lifetime non-negative
		{1, 0.5}, // and at least one report
	} {
		if _, err := ReportLimit(bad.eps, bad.lifetime); err == nil {
			t.Errorf("ReportLimit(%v, %v) accepted", bad.eps, bad.lifetime)
		}
	}
	if _, err := ReportLimit(0, 1); !errors.Is(err, ErrBadEpsilon) {
		t.Errorf("ReportLimit with ε 0: %v does not wrap ErrBadEpsilon", err)
	}
}

// budgetAffords is the charge rule ReportLimit replaced, verbatim: a
// worker that had count reports of eps charged affords one more when its
// float spend plus eps fits the lifetime within 1e-12 (always, with no
// budget), and its count is below MaxReports.
func budgetAffords(count uint32, eps, lifetime float64) bool {
	spent := float64(count) * eps
	return count < MaxReports && (lifetime == 0 || spent+eps <= lifetime+1e-12)
}

// TestReportLimitAgreesWithBudgetRule holds the closed form to the float
// rule it replaced at every count up to and past its boundary, on a grid of
// (ε, lifetime) with exact multiples (0.1 of 1.0, and epoch-rotate's 0.6 of
// 3.0), ε = 1/3, lifetimes a hair either side of a multiple, seeded random
// pairs, and lifetimes that reach the MaxReports cap or are no budget at
// all — where only the counts around the cap are walked.
func TestReportLimitAgreesWithBudgetRule(t *testing.T) {
	type pair struct{ eps, lifetime float64 }
	grid := []pair{
		{0.1, 1.0}, {0.6, 3.0}, {0.6, 1.2}, {1.0 / 3, 1.0}, {1.0 / 3, 2.0}, {0.5, 0.5},
		{0.25, 1.0}, {0.7, 2.1}, {0.3, 0.9}, {0.01, 1.0}, {1e-3, 1.0}, {1.5, 100},
		{0.1, 1.0 - 1e-9}, {0.1, 1.0 + 1e-9}, {0.1, 1.0 - 1e-13}, {0.6, 3.0 - 1e-12},
		{0.6, 1e12}, {1e-6, 1e3}, {0.6, 0}, {1.0 / 3, 0}, {0.6, math.Inf(1)},
	}
	src := rng.New(11)
	for i := 0; i < 300; i++ {
		eps := 0.001 + src.Float64()
		k := float64(1 + src.Intn(2000))
		lifetime := k * eps
		switch i % 3 {
		case 1:
			lifetime *= 1 + (src.Float64()-0.5)*1e-9
		case 2:
			lifetime = max(eps, lifetime+src.Float64()*eps)
		}
		grid = append(grid, pair{eps, lifetime})
	}
	for _, p := range grid {
		limit, err := ReportLimit(p.eps, p.lifetime)
		if err != nil {
			t.Fatalf("ReportLimit(%v, %v): %v", p.eps, p.lifetime, err)
		}
		walk := func(from, to uint32) {
			for count := from; count <= to; count++ {
				if got, want := count < limit, budgetAffords(count, p.eps, p.lifetime); got != want {
					t.Fatalf("ε %v, lifetime %v, %d reports: closed form affords %v, the float rule %v (limit %d)",
						p.eps, p.lifetime, count, got, want, limit)
				}
			}
		}
		if limit < 1<<20 {
			walk(0, limit+1)
			continue
		}
		if limit != MaxReports {
			t.Fatalf("ε %v, lifetime %v: limit %d is neither small nor the cap", p.eps, p.lifetime, limit)
		}
		walk(0, 1000)
		walk(MaxReports-1000, MaxReports+1)
	}
}

// TestCellAtMaxReportsParks pins the ledger count's representation limit:
// with a budget that would still afford the report, or with none, a worker
// at MaxReports is refused and one a report below it is not.
func TestCellAtMaxReportsParks(t *testing.T) {
	for _, lifetime := range []float64{0, 1e12} {
		limit, err := ReportLimit(0.5, lifetime)
		if err != nil {
			t.Fatal(err)
		}
		if !(MaxReports-1 < limit) || MaxReports < limit {
			t.Fatalf("lifetime %v: limit %d, want the cap %d", lifetime, limit, MaxReports)
		}
	}
}
