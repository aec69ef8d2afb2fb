package epoch

import (
	"fmt"
	"sort"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
)

// State is a serialisable snapshot of one serving epoch: the epoch id, the
// published tree, and the available population with their obfuscated
// codes. It is what a deployment persists to survive a restart without
// forcing every worker to re-report (and re-spend) — restoring a snapshot
// reproduces the exact serving state, answer for answer.
type State struct {
	Epoch   int64         `json:"epoch"`
	Tree    *hst.Tree     `json:"tree"` // marshals via its Published form
	Workers []WorkerEntry `json:"workers"`
}

// WorkerEntry is one available worker in a snapshot. Cap is its remaining
// capacity; 0 (the historical wire form) means 1.
type WorkerEntry struct {
	ID   int    `json:"id"`
	Code []byte `json:"code"`
	Cap  int    `json:"cap,omitempty"`
}

// Snapshot captures the engine's current epoch. The engine is walked shard
// by shard, so the caller must have quiesced writers; entries are sorted
// by id, making the snapshot — and its JSON — deterministic regardless of
// shard layout. Capacity-1 workers serialise without a cap field, so
// snapshots of uncapacitated populations are byte-identical to the
// historical form.
func Snapshot(eng *engine.Engine) *State {
	st := &State{Epoch: eng.Epoch(), Tree: eng.Tree()}
	eng.WalkCap(func(code hst.Code, id, capacity int) {
		w := WorkerEntry{ID: id, Code: []byte(code)}
		if capacity > 1 {
			w.Cap = capacity
		}
		st.Workers = append(st.Workers, w)
	})
	sort.Slice(st.Workers, func(a, b int) bool { return st.Workers[a].ID < st.Workers[b].ID })
	return st
}

// Engine rebuilds a serving engine from the snapshot with the given shard
// count (0 = engine default) and engine options (e.g. a capacity-aware
// policy for capacitated snapshots). The restored engine serves the
// snapshot's epoch id and answers every assignment exactly as the
// snapshotted one would.
func (s *State) Engine(shards int, opts ...engine.Option) (*engine.Engine, error) {
	if s.Tree == nil {
		return nil, fmt.Errorf("epoch: state %d has no tree", s.Epoch)
	}
	eng, err := engine.NewWithOptions(s.Tree, shards, opts...)
	if err != nil {
		return nil, err
	}
	if s.Epoch < engine.FirstEpoch {
		return nil, fmt.Errorf("epoch: state has invalid epoch %d", s.Epoch)
	}
	// A missing cap field is exactly capacity 1 (not the engine default):
	// restoring must reproduce the snapshotted pool unit for unit.
	capOf := func(w WorkerEntry) int {
		if w.Cap <= 0 {
			return 1
		}
		return w.Cap
	}
	if s.Epoch == engine.FirstEpoch {
		for _, w := range s.Workers {
			if err := eng.InsertCapEpoch(hst.Code(w.Code), w.ID, capOf(w), 0); err != nil {
				return nil, fmt.Errorf("epoch: restore worker %d: %w", w.ID, err)
			}
		}
		return eng, nil
	}
	// Later epochs restore through the same swap path a live rotation
	// takes, stamping the engine with the snapshot's epoch id. The
	// population is streamed out of the snapshot's worker list instead of
	// being copied into a second []EpochInsert: at 10M workers the copy is
	// the difference between restoring in 1× and 2× the population's
	// memory.
	err = eng.SwapEpochSeq(s.Epoch, s.Tree, shards, func(yield func(engine.EpochInsert) bool) {
		for _, w := range s.Workers {
			if !yield(engine.EpochInsert{Code: hst.Code(w.Code), ID: w.ID, Cap: capOf(w)}) {
				return
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("epoch: restore: %w", err)
	}
	return eng, nil
}
