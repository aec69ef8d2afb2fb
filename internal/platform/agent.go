package platform

import (
	"errors"
	"fmt"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/privacy"
	"github.com/pombm/pombm/internal/rng"
)

// Backend abstracts how agents reach the server: directly in-process or
// over HTTP. Both Server and Client satisfy it.
type Backend interface {
	Publication() Publication
	Register(RegisterRequest) RegisterResponse
	Submit(TaskRequest) TaskResponse
}

var _ Backend = (*Server)(nil)

// API is the full client surface of a pombm deployment — everything a
// caller can do against a serving stack, whatever its shape. Client
// implements it over HTTP against one pombm-server and against a
// coordinator fronting many, which speaks the same protocol; code written
// against API is deployment-shape agnostic (pombm.Dial hands one out).
type API interface {
	Backend
	Reregister(ReregisterRequest) RegisterResponse
	Release(ReleaseRequest) RegisterResponse
	Withdraw(WithdrawRequest) RegisterResponse
	SubmitBatch(TaskBatchRequest) TaskBatchResponse
	PrepareRotate(PrepareRotateRequest) PrepareRotateResponse
	Rotate(RotateRequest) RotateResponse
	Stats() (StatsResponse, error)
}

// Obfuscator is the client-side privacy stack: it snaps a true location to
// the published grid and obfuscates the leaf with the HST mechanism, all on
// the agent's device. Only the resulting code travels to the server. It is
// not safe for concurrent use (it owns a random source); build one per
// goroutine.
type Obfuscator struct {
	grid *geo.Grid
	tree *hst.Tree
	mech *privacy.HSTMechanism
	src  *rng.Source
}

// NewObfuscator builds the client-side stack from a publication. The seed
// is the agent's local randomness.
func NewObfuscator(pub Publication, seed uint64) (*Obfuscator, error) {
	grid, err := geo.NewGrid(pub.Region, pub.Cols, pub.Rows)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	if grid.Len() != pub.Tree.NumPoints() {
		return nil, fmt.Errorf("platform: publication grid (%d points) does not match tree (%d leaves)",
			grid.Len(), pub.Tree.NumPoints())
	}
	mech, err := privacy.NewHSTMechanism(pub.Tree, pub.Epsilon)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	return &Obfuscator{grid: grid, tree: pub.Tree, mech: mech, src: rng.New(seed)}, nil
}

// Obfuscate maps a true location to the leaf code reported to the server.
// It allocates at most the returned code itself.
func (o *Obfuscator) Obfuscate(p geo.Point) hst.Code {
	return o.mech.ObfuscateWalk(o.tree.CodeOf(o.grid.Snap(p)), o.src)
}

// ObfuscateBatch maps a wave of true locations to their reported leaf codes
// through the mechanism's one-pass sampler, which lays every code out in one
// shared slab: registering a fleet of workers costs three allocations (the
// slab, the codes and the snap function), or five for a wave the sampler
// fans out to a helper goroutine, instead of one per worker. A code kept
// past its wave keeps the whole wave's slab alive. The draws are exactly
// those of calling Obfuscate in order; the helper only snaps points and
// looks up their leaves, so pts must not change during the call.
func (o *Obfuscator) ObfuscateBatch(pts []geo.Point) []hst.Code {
	return o.mech.ObfuscateEach(len(pts), func(i int) hst.Code { return o.tree.CodeOf(o.grid.Snap(pts[i])) }, o.src)
}

// Worker is a crowd worker agent: it holds its true location privately and
// registers an obfuscated leaf.
type Worker struct {
	ID  string
	Loc geo.Point // true location; never leaves the agent
}

// Register snaps, obfuscates, and registers the worker.
func (w Worker) Register(b Backend, o *Obfuscator) error {
	resp := b.Register(RegisterRequest{WorkerID: w.ID, Code: []byte(o.Obfuscate(w.Loc))})
	if !resp.OK {
		return fmt.Errorf("platform: registration of %q failed: %s", w.ID, resp.Reason)
	}
	return nil
}

// Task is a spatial task agent with a private true location.
type Task struct {
	ID  string
	Loc geo.Point
}

// Submit obfuscates and submits the task. On assignment it returns the
// chosen worker's id; the pair would then exchange true locations over the
// private channel (modelled by the caller holding both agents).
func (t Task) Submit(b Backend, o *Obfuscator) (workerID string, assigned bool, err error) {
	resp := b.Submit(TaskRequest{TaskID: t.ID, Code: []byte(o.Obfuscate(t.Loc))})
	if !resp.Assigned {
		// "No available workers" is a normal unmatched outcome, not an
		// error. Match the structured refusal; fall back to the legacy
		// Reason string for pre-taxonomy servers.
		if (resp.Err != nil && errors.Is(resp.Err, ErrNoWorkers)) ||
			(resp.Err == nil && resp.Reason == "platform: no available workers") {
			return "", false, nil
		}
		if resp.Err != nil {
			return "", false, fmt.Errorf("platform: task %q rejected: %w", t.ID, resp.Err)
		}
		if resp.Reason != "" {
			return "", false, fmt.Errorf("platform: task %q rejected: %s", t.ID, resp.Reason)
		}
		return "", false, nil
	}
	return resp.WorkerID, true, nil
}
