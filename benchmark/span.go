package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// Span is one timed call at a layer boundary. Start and End are
// nanoseconds on the process clock (now). Parent is the span that
// caused this one when the seam can know it (an id carried in a request
// header, or the harness's own call), 0 otherwise; Req is the tape cycle
// the agent-side call belongs to, −1 for spans a coordinator issues on
// behalf of several requests at once.
type Span struct {
	Kind   spanKind
	ID     uint32
	Parent uint32
	Req    int32
	N      int32 // payload count: tasks in a batch, ops in an envelope
	Start  int64
	End    int64
}

func (s Span) dur() int64 { return s.End - s.Start }

type spanKind uint8

const (
	kNone spanKind = iota
	// Harness-side calls (the requester's and the worker's view).
	kClientSubmit
	kClientRelease
	kClientRegister
	kClientWithdraw
	kClientBatch
	// Middleware around platform.Handler / coord.Handler().
	kHandlerSubmit
	kHandlerRelease
	kHandlerRegister
	kHandlerWithdraw
	kHandlerOther
	// platform.Core decorator, or direct engine calls on engine-churn.
	kCoreAssign
	kCoreInsert
	kCoreAddCap
	kCoreRemove
	kCoreBatch
	kCoreSwap
	// Coordinator → node round trips and the node-side handler.
	kNodeReqOps
	kNodeReqMinID
	kNodeReqPopMin
	kNodeReqPrepare
	kNodeReqCommit
	kNodeReqOther
	kNodeHandler
	// Rotation phases timed by the harness.
	kRotatePrepare
	kRotateCommit
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	kNone:            "none",
	kClientSubmit:    "client.submit",
	kClientRelease:   "client.release",
	kClientRegister:  "client.register",
	kClientWithdraw:  "client.withdraw",
	kClientBatch:     "client.submit_batch",
	kHandlerSubmit:   "handler.submit",
	kHandlerRelease:  "handler.release",
	kHandlerRegister: "handler.register",
	kHandlerWithdraw: "handler.withdraw",
	kHandlerOther:    "handler.other",
	kCoreAssign:      "core.assign",
	kCoreInsert:      "core.insert",
	kCoreAddCap:      "core.add_capacity",
	kCoreRemove:      "core.remove",
	kCoreBatch:       "core.assign_batch",
	kCoreSwap:        "core.swap_epoch",
	kNodeReqOps:      "node_req.ops",
	kNodeReqMinID:    "node_req.min_id",
	kNodeReqPopMin:   "node_req.pop_min",
	kNodeReqPrepare:  "node_req.prepare",
	kNodeReqCommit:   "node_req.commit",
	kNodeReqOther:    "node_req.other",
	kNodeHandler:     "node.handler",
	kRotatePrepare:   "rotate.prepare",
	kRotateCommit:    "rotate.commit",
}

// Recorder keeps spans in one preallocated arena claimed through an atomic
// cursor: recording takes no lock and allocates nothing, whichever
// goroutine — harness client, HTTP handler, coalescer flusher — is at the
// seam. A span's id is its arena slot + 1, claimed when the span starts so
// the id can ride in a request header before the span ends. A full arena
// drops further spans and counts them.
type Recorder struct {
	spans   []Span
	cursor  atomic.Uint32
	dropped atomic.Uint32
}

// NewRecorder returns a recorder with room for capacity spans.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{spans: make([]Span, capacity)}
}

// Claim reserves a span id; 0 means the arena is full.
func (r *Recorder) Claim() uint32 {
	id := r.cursor.Add(1)
	if int(id) > len(r.spans) {
		r.dropped.Add(1)
		return 0
	}
	return id
}

// Put stores a span the caller timed itself under a claimed id.
func (r *Recorder) Put(id uint32, s Span) {
	if id == 0 {
		return
	}
	s.ID = id
	r.spans[id-1] = s
}

// Begin claims a span id and stamps its start.
func (r *Recorder) Begin(kind spanKind, parent uint32, req int32) uint32 {
	id := r.Claim()
	if id != 0 {
		s := &r.spans[id-1]
		s.Kind, s.ID, s.Parent, s.Req = kind, id, parent, req
		s.Start = now()
	}
	return id
}

// End stamps the span's end. n is its payload count (1 for single calls).
func (r *Recorder) End(id uint32, n int) {
	if id == 0 {
		return
	}
	s := &r.spans[id-1]
	s.N = int32(n)
	s.End = now()
}

// Spans returns the completed spans in start order. Call it only once the
// goroutines that record have stopped.
func (r *Recorder) Spans() []Span {
	n := min(int(r.cursor.Load()), len(r.spans))
	out := make([]Span, 0, n)
	for _, s := range r.spans[:n] {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Dropped returns how many spans did not fit.
func (r *Recorder) Dropped() int { return int(r.dropped.Load()) }

// selfTime is the self-time rule: a span's duration minus the part of its
// interval that the given spans cover. Covered means the union, not the
// sum — a coordinator's root-tier polls run in parallel and three 40 µs
// polls occupy 40 µs of their parent, not 120 — and a child is clipped to
// the parent's interval, so one that outlives it (a flusher still draining
// when the handler returns) cannot push self time below zero. children
// must be sorted by Start.
func selfTime(parent Span, children []Span) int64 {
	covered, frontier := int64(0), parent.Start
	for _, c := range children {
		lo, hi := max(c.Start, frontier), min(c.End, parent.End)
		if hi > lo {
			covered += hi - lo
			frontier = hi
		}
	}
	return parent.dur() - covered
}

// overlapping returns the sub-slice of sorted (by Start) spans that can
// overlap [lo, hi): those starting before hi, back to the first that could
// still be running at lo given no span is longer than maxDur.
func overlapping(sorted []Span, lo, hi, maxDur int64) []Span {
	i := sort.Search(len(sorted), func(k int) bool { return sorted[k].Start >= lo-maxDur })
	j := sort.Search(len(sorted), func(k int) bool { return sorted[k].Start >= hi })
	return sorted[i:j]
}

// writeTrace writes the spans as JSON lines under benchmark/out/.
func writeTrace(dir, workload string, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name   string `json:"name"`
		ID     uint32 `json:"id"`
		Parent uint32 `json:"parent,omitempty"`
		Req    int32  `json:"req"`
		N      int32  `json:"n,omitempty"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for _, s := range spans {
		if err := enc.Encode(line{spanKindNames[s.Kind], s.ID, s.Parent, s.Req, s.N, s.Start, s.End}); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
