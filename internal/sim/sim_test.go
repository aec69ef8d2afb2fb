package sim

import (
	"bytes"
	"testing"
)

// shortPreset returns the named preset cut down to a quick horizon so the
// full matrix of tests stays fast; structure (rates, churn, spatial model)
// is untouched.
func shortPreset(t *testing.T, name string, duration float64) Scenario {
	t.Helper()
	sc, err := Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc.WithDuration(duration)
}

func TestWithDuration(t *testing.T) {
	sc, err := Preset("rush-hour") // multi-segment profile
	if err != nil {
		t.Fatal(err)
	}
	short := sc.WithDuration(200)
	if short.Duration != 200 || short.TaskRate.Duration() != 200 {
		t.Errorf("trim: duration %v, profile ends %v", short.Duration, short.TaskRate.Duration())
	}
	if err := short.Validate(); err != nil {
		t.Errorf("trimmed scenario invalid: %v", err)
	}
	long := sc.WithDuration(2000)
	if long.Duration != 2000 || long.TaskRate.Duration() != 2000 {
		t.Errorf("extend: duration %v, profile ends %v — tasks would stop arriving early",
			long.Duration, long.TaskRate.Duration())
	}
	if err := long.Validate(); err != nil {
		t.Errorf("extended scenario invalid: %v", err)
	}
	if same := sc.WithDuration(sc.Duration); same.TaskRate.Duration() != sc.TaskRate.Duration() {
		t.Error("no-op override changed the profile")
	}
	// The extended run actually generates tasks across the whole horizon.
	r, _, err := Run(Config{Scenario: long.WithDuration(900), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Tasks.Arrived < 2000 { // ≥2/s for 900s at the lowest segment rate
		t.Errorf("extended horizon arrived only %d tasks", r.Tasks.Arrived)
	}
}

func TestPresetsValidate(t *testing.T) {
	names := Scenarios()
	want := []string{"batch-heavy", "capacity-heavy", "chengdu-day", "churn-heavy", "epoch-rotate", "flash-crowd", "rush-hour", "steady"}
	if len(names) != len(want) {
		t.Fatalf("Scenarios() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Scenarios() = %v, want %v", names, want)
		}
	}
	for _, name := range names {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestValidateRejectsBadScenarios(t *testing.T) {
	base, _ := Preset("steady")
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"zero duration", func(sc *Scenario) { sc.Duration = 0 }},
		{"zero grid", func(sc *Scenario) { sc.GridCols = 0 }},
		{"zero epsilon", func(sc *Scenario) { sc.Epsilon = 0 }},
		{"negative workers", func(sc *Scenario) { sc.InitialWorkers = -1 }},
		{"bad return prob", func(sc *Scenario) { sc.ReturnProb = 1.5 }},
		{"returns without away time", func(sc *Scenario) { sc.ReturnProb = 0.5; sc.MeanAway = 0 }},
		{"zero service", func(sc *Scenario) { sc.MeanService = 0 }},
		{"empty task rate", func(sc *Scenario) { sc.TaskRate = nil }},
		{"unknown spatial", func(sc *Scenario) { sc.Spatial = "hyperbolic" }},
		{"normal without sigma", func(sc *Scenario) { sc.Spatial = SpatialNormal; sc.Sigma = 0 }},
		{"negative rotate interval", func(sc *Scenario) { sc.RotateEvery = -1 }},
		{"negative lifetime budget", func(sc *Scenario) { sc.LifetimeEps = -1 }},
		{"lifetime below epsilon", func(sc *Scenario) { sc.LifetimeEps = sc.Epsilon / 2 }},
		{"refit without rotation", func(sc *Scenario) { sc.RotateRefit = true }},
		{"negative capacity", func(sc *Scenario) { sc.Capacity = -1 }},
		{"capacity without capacity-aware policy", func(sc *Scenario) { sc.Capacity = 2 }},
		{"unknown policy", func(sc *Scenario) { sc.Policy = "telepathy" }},
	}
	for _, tc := range cases {
		sc := base
		tc.mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestRunDeterministic is the determinism contract: same (scenario, seed,
// driver) → byte-identical canonical JSON.
func TestRunDeterministic(t *testing.T) {
	for _, driver := range []Driver{DriverPlatform, DriverCluster} {
		sc := shortPreset(t, "churn-heavy", 120)
		cfg := Config{Scenario: sc, Seed: 1, Driver: driver, CrossCheck: true}
		r1, _, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r2, _, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b1, err := r1.JSON()
		if err != nil {
			t.Fatal(err)
		}
		b2, err := r2.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: reports differ between identical runs:\n%s\n---\n%s", driver, b1, b2)
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	sc := shortPreset(t, "steady", 120)
	r1, _, err := Run(Config{Scenario: sc, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := Run(Config{Scenario: sc, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := r1.JSON()
	b2, _ := r2.JSON()
	if bytes.Equal(b1, b2) {
		t.Error("different seeds produced identical reports")
	}
}

// TestCrossCheckAllPresets is the acceptance criterion: zero cross-check
// violations across every preset, on the default (platform) driver.
func TestCrossCheckAllPresets(t *testing.T) {
	for _, name := range Scenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc := shortPreset(t, name, 180)
			r, _, err := Run(Config{Scenario: sc, Seed: 1, CrossCheck: true})
			if err != nil {
				t.Fatal(err)
			}
			if r.Check == nil {
				t.Fatal("crosscheck report missing")
			}
			if r.Check.Violations != 0 {
				t.Errorf("%d violations of %d checked: %v", r.Check.Violations, r.Check.Checked, r.Check.Samples)
			}
			if !r.Check.PoolConsistent {
				t.Error("server pool size diverged from the sequential reference")
			}
			if r.Check.Checked == 0 {
				t.Error("crosscheck observed no assignment attempts")
			}
			if r.Tasks.Assigned == 0 {
				t.Error("scenario assigned no tasks")
			}
		})
	}
}

// TestCrossCheckPlatformDriver runs churn-heavy, the preset heaviest in
// departures and returns (so in stints, and in ties between them), on the
// platform driver at seeds no other test runs.
func TestCrossCheckPlatformDriver(t *testing.T) {
	sc := shortPreset(t, "churn-heavy", 180)
	for _, seed := range []uint64{2, 3, 4} {
		r, _, err := Run(Config{Scenario: sc, Seed: seed, Driver: DriverPlatform, CrossCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Check.Violations != 0 {
			t.Errorf("seed %d: %d violations: %v", seed, r.Check.Violations, r.Check.Samples)
		}
		if !r.Check.PoolConsistent {
			t.Errorf("seed %d: platform pool size diverged from the sequential reference", seed)
		}
		if r.Check.Checked == 0 {
			t.Errorf("seed %d: crosscheck observed no assignment attempts", seed)
		}
	}
}

func TestMetricsInvariants(t *testing.T) {
	for _, name := range Scenarios() {
		sc := shortPreset(t, name, 180)
		r, stats, err := Run(Config{Scenario: sc, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		m := r.Tasks
		if m.Assigned+m.Expired+m.PendingAtEnd > m.Arrived {
			t.Errorf("%s: task accounting exceeds arrivals: %+v", name, m)
		}
		if m.AssignmentRate < 0 || m.AssignmentRate > 1 {
			t.Errorf("%s: assignment rate %v outside [0,1]", name, m.AssignmentRate)
		}
		if r.Workers.Utilisation < 0 || r.Workers.Utilisation > 1 {
			t.Errorf("%s: utilisation %v outside [0,1]", name, r.Workers.Utilisation)
		}
		if r.Workers.AvailableAtEnd > r.Workers.OnlineAtEnd {
			t.Errorf("%s: more available than online: %+v", name, r.Workers)
		}
		var levelTotal int
		for _, c := range r.Match.LevelCounts {
			levelTotal += c
		}
		if levelTotal != m.Assigned {
			t.Errorf("%s: level histogram sums to %d, assigned %d", name, levelTotal, m.Assigned)
		}
		if q := r.Match.TrueDist; q.P50 > q.P90 || q.P90 > q.P99 || q.P99 > q.Max {
			t.Errorf("%s: quantiles not monotone: %+v", name, q)
		}
		if r.Events <= 0 || stats.WallSeconds < 0 {
			t.Errorf("%s: events %d, wall %v", name, r.Events, stats.WallSeconds)
		}
	}
}

func TestChurnHeavyActuallyChurns(t *testing.T) {
	sc := shortPreset(t, "churn-heavy", 300)
	r, _, err := Run(Config{Scenario: sc, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers.Departed == 0 {
		t.Error("no departures in churn-heavy")
	}
	if r.Workers.Returns == 0 {
		t.Error("no comebacks in churn-heavy")
	}
	if r.Workers.Registrations <= r.Workers.Arrived {
		t.Errorf("registrations %d not above fresh arrivals %d — no re-registration happened",
			r.Workers.Registrations, r.Workers.Arrived)
	}
}

func TestFlashCrowdExpiresTasks(t *testing.T) {
	sc := shortPreset(t, "flash-crowd", 360) // includes the spike at [240, 300)
	r, _, err := Run(Config{Scenario: sc, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Tasks.Expired == 0 {
		t.Error("flash crowd spike expired no tasks — the preset is not stressing the pool")
	}
}

func TestBatchWindowMode(t *testing.T) {
	sc := shortPreset(t, "chengdu-day", 200)
	r, _, err := Run(Config{Scenario: sc, Seed: 9, CrossCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Tasks.Assigned == 0 {
		t.Fatal("batch mode assigned nothing")
	}
	// Windowed assignment delays every task to its window close: mean wait
	// must be positive (immediate mode with spare capacity keeps it 0).
	if r.Tasks.MeanWait <= 0 {
		t.Errorf("mean wait %v in batch mode, want > 0", r.Tasks.MeanWait)
	}
	if r.Check.Violations != 0 {
		t.Errorf("batch mode violations: %v", r.Check.Samples)
	}
}

// TestEpochRotatePreset runs the epoch-rotate preset far enough to cross
// two rotations on both drivers — one server and a coordinator's
// distributed rotation — cross-checked: rotation must leave the
// sequential nearest-worker contract intact, actually rotate and park, and
// conserve budget — the accountant total equals ε times every fresh report
// (registrations, post-task re-reports, rotation re-obfuscations).
func TestEpochRotatePreset(t *testing.T) {
	for _, driver := range []Driver{DriverPlatform, DriverCluster} {
		driver := driver
		t.Run(string(driver), func(t *testing.T) {
			sc := shortPreset(t, "epoch-rotate", 660) // rotations at 300 and 600
			r, _, err := Run(Config{Scenario: sc, Seed: 1, Driver: driver, CrossCheck: true})
			if err != nil {
				t.Fatal(err)
			}
			if r.Check.Violations != 0 {
				t.Errorf("%d violations: %v", r.Check.Violations, r.Check.Samples)
			}
			if !r.Check.PoolConsistent {
				t.Error("pool diverged from the sequential reference across rotations")
			}
			if r.Epochs == nil {
				t.Fatal("epoch metrics missing")
			}
			if r.Epochs.Rotations != 2 || r.Epochs.FinalEpoch != 3 {
				t.Errorf("rotations = %d, final epoch %d", r.Epochs.Rotations, r.Epochs.FinalEpoch)
			}
			if r.Epochs.RotatedReports == 0 {
				t.Error("no worker ever re-reported across a rotation")
			}
			if r.Epochs.ParkedWorkers == 0 {
				t.Error("lifetime budgets never exhausted — the preset is not stressing accounting")
			}
			if r.Epochs.BudgetLimit != sc.LifetimeEps {
				t.Errorf("budget limit %v, want %v", r.Epochs.BudgetLimit, sc.LifetimeEps)
			}
			// Budget conservation: every accepted fresh report spends ε
			// exactly once — registrations (incl. post-task re-reports) plus
			// rotation re-obfuscations.
			want := sc.Epsilon * float64(r.Workers.Registrations+r.Epochs.RotatedReports)
			if diff := r.Epochs.BudgetSpent - want; diff < -1e-6 || diff > 1e-6 {
				t.Errorf("budget spent %v, fresh reports say %v", r.Epochs.BudgetSpent, want)
			}
			if r.Tasks.Assigned == 0 {
				t.Error("no assignments across rotations")
			}
		})
	}
}

// TestRotationChangesTree asserts a rotation actually republishes: with
// everything else fixed, enabling rotation changes downstream assignment
// outcomes (the tree the codes live in is different after t=300).
func TestRotationChangesTree(t *testing.T) {
	base := shortPreset(t, "steady", 450)
	rotated := base
	rotated.RotateEvery = 300
	r1, _, err := Run(Config{Scenario: base, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := Run(Config{Scenario: rotated, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Epochs == nil || r2.Epochs.Rotations != 1 {
		t.Fatalf("rotated run: %+v", r2.Epochs)
	}
	if r1.Epochs != nil {
		t.Error("non-rotating run emitted epoch metrics")
	}
	b1, _ := r1.JSON()
	b2, _ := r2.JSON()
	if bytes.Equal(b1, b2) {
		t.Error("enabling rotation changed nothing")
	}
}

// TestLifetimeBudgetWithoutRotation exercises accounting alone: short
// lifetimes park workers through the ordinary register/release path even
// when no rotation ever happens.
func TestLifetimeBudgetWithoutRotation(t *testing.T) {
	sc := shortPreset(t, "churn-heavy", 300)
	sc.LifetimeEps = 2 * sc.Epsilon // two reports per worker, ever
	r, _, err := Run(Config{Scenario: sc, Seed: 1, CrossCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Check.Violations != 0 {
		t.Errorf("violations: %v", r.Check.Samples)
	}
	if r.Epochs == nil || r.Epochs.ParkedWorkers == 0 {
		t.Fatal("tight lifetime budget parked nobody")
	}
	if r.Epochs.Rotations != 0 {
		t.Errorf("rotations = %d without RotateEvery", r.Epochs.Rotations)
	}
	want := sc.Epsilon * float64(r.Workers.Registrations)
	if diff := r.Epochs.BudgetSpent - want; diff < -1e-6 || diff > 1e-6 {
		t.Errorf("budget spent %v, registrations say %v", r.Epochs.BudgetSpent, want)
	}
}

// TestCapacityHeavyPreset is the policy layer's acceptance test: the
// capacitated sequential rule survives the full churn + rotation gauntlet
// with zero cross-check violations, and the platform and cluster drivers
// produce bit-identical assignment outcomes.
func TestCapacityHeavyPreset(t *testing.T) {
	sc := shortPreset(t, "capacity-heavy", 300) // crosses the rotation at 240
	var blobs [][]byte
	for _, driver := range []Driver{DriverPlatform, DriverCluster} {
		r, _, err := Run(Config{Scenario: sc, Seed: 1, Driver: driver, CrossCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Check.Violations != 0 {
			t.Fatalf("%s: %d violations of %d checked: %v",
				driver, r.Check.Violations, r.Check.Checked, r.Check.Samples)
		}
		if !r.Check.PoolConsistent {
			t.Fatalf("%s: pool diverged from the capacitated reference", driver)
		}
		if r.Policy != "capacity-greedy" || r.Capacity != 3 {
			t.Fatalf("%s: report policy %q capacity %d", driver, r.Policy, r.Capacity)
		}
		if r.Epochs == nil || r.Epochs.Rotations != 1 {
			t.Fatalf("%s: epochs %+v, want one rotation", driver, r.Epochs)
		}
		if r.Tasks.Assigned == 0 {
			t.Fatalf("%s: no assignments", driver)
		}
		// Capacity must actually matter: more tasks assigned than distinct
		// worker stints would allow under the one-task rule at peak.
		if r.Tasks.Assigned <= r.Workers.Registrations && r.Workers.Utilisation == 0 {
			t.Fatalf("%s: capacity never exercised: %+v", driver, r.Tasks)
		}
		// Neutralise the driver tag: everything else must be byte-identical
		// across drivers.
		r.Driver = ""
		blob, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Errorf("capacity-heavy reports differ across drivers:\n%s\n---\n%s", blobs[0], blobs[1])
	}
}

// TestBatchOptimalScenario runs the windowed chengdu-day preset under the
// batch-optimal policy with the strict window cross-check: every window
// must match only its tasks' reference candidates, leave as many tasks
// unmatched and cost as much as the reference matching, every assignment
// must consume a genuinely available unit and the pool must stay
// consistent.
func TestBatchOptimalScenario(t *testing.T) {
	sc := shortPreset(t, "chengdu-day", 200)
	sc.Policy = "batch-optimal"
	sc.Capacity = 2
	for _, driver := range []Driver{DriverPlatform, DriverCluster} {
		r, _, err := Run(Config{Scenario: sc, Seed: 9, Driver: driver, CrossCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Check.Violations != 0 {
			t.Errorf("%s: window violations: %v", driver, r.Check.Samples)
		}
		if !r.Check.PoolConsistent {
			t.Errorf("%s: pool diverged", driver)
		}
		if r.Tasks.Assigned == 0 {
			t.Errorf("%s: batch-optimal assigned nothing", driver)
		}
		if r.Policy != "batch-optimal:k=8" {
			t.Errorf("%s: report policy %q", driver, r.Policy)
		}
	}
}

func TestUnknownDriverRejected(t *testing.T) {
	sc := shortPreset(t, "steady", 60)
	for _, driver := range []Driver{"carrier-pigeon", "engine"} {
		if _, _, err := Run(Config{Scenario: sc, Seed: 1, Driver: driver}); err == nil {
			t.Errorf("unknown driver %q accepted", driver)
		}
	}
}

func TestNegativeNodesRejected(t *testing.T) {
	sc := shortPreset(t, "steady", 60)
	for _, driver := range []Driver{"", DriverPlatform, DriverCluster} {
		if _, _, err := Run(Config{Scenario: sc, Seed: 1, Driver: driver, Nodes: -1}); err == nil {
			t.Errorf("driver %q accepted Nodes = -1", driver)
		}
	}
}
