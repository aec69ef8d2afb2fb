// Package workload generates the task/worker location sets used by the
// evaluation: the synthetic Normal(µ, σ) workloads of Table II and a
// synthetic stand-in for the Didi Chuxing Chengdu dataset of Table III.
//
// The real dataset (7M GAIA trip records, November 2016) is proprietary;
// the Chengdu generator reproduces its relevant structure — a fixed
// city-wide hotspot mixture sampled over 30 days with 4245–5034 peak-hour
// task origins per day in a 10 km × 10 km region — from a fixed seed, so
// "days" are stable across runs like a real dataset would be.
package workload

import (
	"fmt"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
)

// Instance is one POMBM problem instance: worker locations known upfront
// and task locations in arrival order.
type Instance struct {
	Region  geo.Rect
	Workers []geo.Point
	Tasks   []geo.Point
}

// Clone returns a deep copy; the experiment runner shuffles task order per
// repetition without disturbing the base instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{Region: in.Region}
	out.Workers = append([]geo.Point(nil), in.Workers...)
	out.Tasks = append([]geo.Point(nil), in.Tasks...)
	return out
}

// ShuffleTasks permutes the task arrival order in place (the random-order
// model of Definition 8).
func (in *Instance) ShuffleTasks(src *rng.Source) {
	rng.PermInPlace(src, in.Tasks)
}

// SyntheticParams mirrors Table II: locations are Normal(µ, σ) per
// coordinate inside a 200 × 200 space.
type SyntheticParams struct {
	NumTasks   int
	NumWorkers int
	Mu         float64
	Sigma      float64
}

// SyntheticRegion is the paper's synthetic space.
var SyntheticRegion = geo.NewRect(geo.Pt(0, 0), geo.Pt(200, 200))

// Synthetic draws an instance per Table II. Coordinates are clamped to the
// region, matching how a bounded city region would truncate a Normal draw.
func Synthetic(p SyntheticParams, src *rng.Source) (*Instance, error) {
	if p.NumTasks < 0 || p.NumWorkers < 0 {
		return nil, fmt.Errorf("workload: negative sizes (%d tasks, %d workers)", p.NumTasks, p.NumWorkers)
	}
	if p.Sigma < 0 {
		return nil, fmt.Errorf("workload: negative sigma %v", p.Sigma)
	}
	in := &Instance{Region: SyntheticRegion}
	ws := src.Derive("workers")
	ts := src.Derive("tasks")
	in.Workers = normalPoints(p.NumWorkers, p.Mu, p.Sigma, SyntheticRegion, ws)
	in.Tasks = normalPoints(p.NumTasks, p.Mu, p.Sigma, SyntheticRegion, ts)
	return in, nil
}

func normalPoints(n int, mu, sigma float64, region geo.Rect, src *rng.Source) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = region.Clamp(geo.Pt(src.Normal(mu, sigma), src.Normal(mu, sigma)))
	}
	return pts
}

// Reaches draws per-worker reachable radii uniformly in [lo, hi] for the
// matching-size case study (Sec. IV-C: [10,20] synthetic; 500–1000 m real,
// i.e. [10,20] in the Chengdu generator's 50 m units).
func Reaches(n int, lo, hi float64, src *rng.Source) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = src.Uniform(lo, hi)
	}
	return out
}
