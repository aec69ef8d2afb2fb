// Package epoch owns live HST epoch rotation: the bookkeeping that lets a
// long-lived deployment periodically republish the tree and re-noise the
// live worker population without stopping assignment.
//
// The paper's setting is one-shot — every agent obfuscates once under a
// fixed ε — but an online platform composes: every fresh report of (a
// perturbation of) the same location spends budget, and a tree served
// forever leaks structure about the population that built it. A rotation
// closes both gaps. It proceeds in two phases:
//
//  1. Prepare: build the next epoch's tree in the background (optionally
//     reseeded, optionally refit from a report histogram the owner counts)
//     while the current epoch keeps serving.
//  2. Commit: by now the owner has collected a fresh obfuscated report from
//     every available worker under the staged tree — reports are drawn
//     client-side; the owner only sees the resulting codes — swapped its
//     engine to the workers whose budget affords the report and charged
//     each of them. Commit advances the controller's epoch counter and
//     counts the rotated workers.
//
// The controller is deliberately engine-agnostic: the engine and the
// platform server both drive it, applying a rotation to their own id spaces
// (engine ids, platform slots). The lifetime-ε ledger is not the
// controller's at all. Every report spends the one ε, so a worker's ledger
// is a count of its charged reports, kept in its owner's worker table (a
// platform slot record, the simulator's dense array) under the owner's
// lock, and the charge rule is arithmetic on it: ReportLimit. The owner
// keeps the totals beside the counts — Σ ε over the charges, the ids
// charged, the ids parked — so budget conservation (the total is ε times
// the sum of the counts, and no count passes the limit) is the owner's
// invariant, and epoch consistency (no assignment pairs codes from
// different epochs; the engine swap plus the serving layer's rotation gate
// enforce it) the one the controller serves.
package epoch

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/privacy"
	"github.com/pombm/pombm/internal/rng"
)

// ErrBudgetExhausted aliases the privacy sentinel so serving layers can
// match budget refusals without importing privacy directly.
var ErrBudgetExhausted = privacy.ErrBudgetExhausted

// ErrNotStaged is returned by Commit when no rotation has been prepared (or
// a previous one was already committed).
var ErrNotStaged = errors.New("epoch: no rotation staged")

// FirstEpoch is the epoch id of the initial publication; the controller's
// epoch ids are the engine's.
const FirstEpoch = engine.FirstEpoch

// MaxReports is the most reports a worker's ledger count holds: 2^28−1,
// 8.5 years at one a second, so an owner may pack a count into 28 bits. A
// worker whose count is there is refused as if its budget had run out; a
// count never wraps.
const MaxReports = 1<<28 - 1

// ReportLimit is the lifetime-ε charge rule, closed-form: a worker that has
// had count fresh reports charged affords one more exactly when
// count < ReportLimit(eps, lifetime), and one refused by that is parked.
// Every report spends the one eps, so the limit is ⌊(lifetime + 1e-12)/eps⌋
// — the count whose spend count·eps still fits the lifetime, within the
// 1e-12 that keeps an exact multiple (0.1 × 10 against 1.0) affordable —
// capped at MaxReports; with no lifetime budget (0) it is MaxReports alone.
// A lifetime below eps would refuse every report and is an error.
func ReportLimit(eps, lifetime float64) (uint32, error) {
	switch {
	case !(eps > 0):
		return 0, fmt.Errorf("epoch: epsilon %v must be positive", eps)
	case !(lifetime >= 0):
		return 0, fmt.Errorf("epoch: lifetime budget %v must be non-negative", lifetime)
	case lifetime == 0:
		return MaxReports, nil
	case lifetime < eps:
		return 0, fmt.Errorf("epoch: lifetime budget %v below per-report ε %v; every report would be refused",
			lifetime, eps)
	}
	return uint32(min(math.Floor((lifetime+1e-12)/eps), MaxReports)), nil
}

// Config configures a Controller.
type Config struct {
	// Tree is the initial (epoch-1) publication, already built by the
	// owner. Rotated trees embed the same predefined points.
	Tree *hst.Tree
	// Seed roots the derivation of per-epoch construction randomness when
	// a rotation is prepared without an explicit reseed.
	Seed uint64
}

// Controller tracks the serving epoch and stages the next one. It is safe
// for concurrent use; one rotation is staged at a time.
type Controller struct {
	seed uint64

	mu        sync.Mutex
	epoch     int64
	tree      *hst.Tree
	staged    *Staged
	rotations int
	rotated   int // workers successfully re-obfuscated across all rotations
}

// Staged is a prepared (not yet committed) rotation: the next epoch id and
// the tree workers must re-obfuscate under.
type Staged struct {
	Epoch int64
	Tree  *hst.Tree
}

// NewController returns a controller serving cfg.Tree as epoch 1.
func NewController(cfg Config) (*Controller, error) {
	if cfg.Tree == nil {
		return nil, errors.New("epoch: nil tree")
	}
	return &Controller{seed: cfg.Seed, epoch: FirstEpoch, tree: cfg.Tree}, nil
}

// Tree returns the serving epoch's tree.
func (c *Controller) Tree() *hst.Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tree
}

// Prepare stages the next epoch: a fresh tree over the same predefined
// points, built in the background while the current epoch keeps serving.
// seed 0 derives the construction randomness from the controller's root
// seed and the next epoch id; a non-zero seed reseeds explicitly. A non-nil
// hist refits: it counts reports per predefined point (as Tree.PointOf
// indexes them), and the carving permutation is ordered by it (hottest
// points first, so ball carving tightens clusters where demand actually
// concentrates) instead of drawn uniformly. Re-preparing replaces a
// previously staged rotation.
func (c *Controller) Prepare(seed uint64, hist []int) (*Staged, error) {
	c.mu.Lock()
	next := c.epoch + 1
	points := c.tree.Points()
	c.mu.Unlock()
	if hist != nil && len(hist) != len(points) {
		return nil, fmt.Errorf("epoch: refit histogram of %d points, the tree has %d", len(hist), len(points))
	}

	// Tree construction happens outside the lock: it is milliseconds of
	// work (hst.Build is near-linear), but the serving epoch must not
	// stall behind even that.
	if seed == 0 {
		seed = rng.New(c.seed).DeriveN("epoch-tree", int(next)).Seed()
	}
	src := rng.New(seed)
	var tree *hst.Tree
	var err error
	if hist != nil {
		tree, err = buildRefit(points, hist, src)
	} else {
		tree, err = hst.Build(points, src)
	}
	if err != nil {
		return nil, fmt.Errorf("epoch: prepare %d: %w", next, err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch+1 != next {
		return nil, fmt.Errorf("epoch: rotation committed while preparing %d", next)
	}
	c.staged = &Staged{Epoch: next, Tree: tree}
	return c.staged, nil
}

// buildRefit builds the tree with the carving permutation ordered by
// report counts (descending, ties towards the lower point index —
// deterministic), so hot points become early pivots. β is still drawn from
// the construction randomness.
func buildRefit(points []geo.Point, hist []int, src *rng.Source) (*hst.Tree, error) {
	perm := make([]int, len(points))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		if hist[perm[a]] != hist[perm[b]] {
			return hist[perm[a]] > hist[perm[b]]
		}
		return perm[a] < perm[b]
	})
	beta := src.Derive("hst-beta").Uniform(0.5, 1.0)
	return hst.BuildWithParams(points, beta, perm)
}

// StagedRotation returns the currently staged rotation, or nil.
func (c *Controller) StagedRotation() *Staged {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.staged
}

// Commit advances the controller to the staged epoch, counting rotated
// workers re-obfuscated into it. The serving layer calls it after (not
// before) its engine swap succeeded and it charged each rotated worker's
// report, so a failed swap leaves the controller still serving — and still
// able to rotate to — the old epoch.
func (c *Controller) Commit(staged *Staged, rotated int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.staged == nil {
		return ErrNotStaged
	}
	if staged.Epoch != c.staged.Epoch {
		return fmt.Errorf("epoch: commit of %d, staged is %d", staged.Epoch, c.staged.Epoch)
	}
	c.epoch = staged.Epoch
	c.tree = staged.Tree
	c.staged = nil
	c.rotations++
	c.rotated += rotated
	return nil
}

// Stats is a point-in-time summary of the controller's bookkeeping.
type Stats struct {
	Epoch     int64
	Rotations int
	Rotated   int // successful re-obfuscations across all rotations
}

// Stats returns the controller's counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Epoch: c.epoch, Rotations: c.rotations, Rotated: c.rotated}
}
