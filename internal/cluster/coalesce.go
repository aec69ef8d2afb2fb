package cluster

import (
	"encoding/json"
	"runtime"
	"sync"
)

// maxOpsPerEnvelope bounds one flush so a burst cannot build an
// arbitrarily large request body (and a lost envelope retries a bounded
// amount of work).
const maxOpsPerEnvelope = 128

// batchedOp is one caller's slot in a pending envelope.
type batchedOp struct {
	op   OpRequest
	done chan struct{}
	raw  json.RawMessage
	err  error
}

// batcher coalesces concurrent single-worker operations bound for one node
// into /v2/node/ops envelopes; every httpNode owns one, so coalescing is a
// property of the HTTP transport and nothing above NodeConn knows of it.
// Callers enqueue their op and block; whichever enqueue finds no flusher
// running starts one, and the flusher drains the queue in envelope-sized
// batches until it is empty, then exits. A sequential caller stream
// degenerates to singleton envelopes — one op per round trip — so
// coalescing only ever removes round trips, never adds latency waiting for
// company.
//
// Coalescing is a legal serialization: the ops in one envelope are
// concurrent with each other (each caller is blocked in its own request),
// so they have no defined order, and the node applies the envelope's ops
// in sequence. Order between non-concurrent ops is preserved — an op
// enqueued after another completed necessarily lands in a later envelope.
type batcher struct {
	conn *httpNode // ships the envelopes

	mu      sync.Mutex
	pending []*batchedOp
	active  bool
}

// do ships one op through the coalescer and blocks until its envelope
// lands. An envelope-level failure (transport, refused envelope) is
// returned to every op it carried; per-op refusals come back as the op's
// own raw result.
func (b *batcher) do(op OpRequest) (json.RawMessage, error) {
	bo := &batchedOp{op: op, done: make(chan struct{})}
	b.mu.Lock()
	b.pending = append(b.pending, bo)
	spawn := !b.active
	b.active = true
	b.mu.Unlock()
	if spawn {
		go b.flush()
	}
	<-bo.done
	return bo.raw, bo.err
}

func (b *batcher) flush() {
	// Yield once before the first drain: the op that spawned this flusher
	// is rarely alone — its sibling request handlers are runnable right
	// now, and letting them enqueue first turns a singleton envelope into a
	// full one. Steady state needs no such nudge (the previous envelope's
	// round trip is the accumulation window); for a sequential caller the
	// cost is one scheduler pass.
	runtime.Gosched()
	for {
		b.mu.Lock()
		batch := b.pending
		if len(batch) == 0 {
			b.active = false
			b.mu.Unlock()
			return
		}
		if len(batch) > maxOpsPerEnvelope {
			rest := batch[maxOpsPerEnvelope:]
			batch = batch[:maxOpsPerEnvelope:maxOpsPerEnvelope]
			b.pending = append(make([]*batchedOp, 0, len(rest)), rest...)
		} else {
			b.pending = nil
		}
		b.mu.Unlock()

		ops := make([]OpRequest, len(batch))
		for i, bo := range batch {
			ops[i] = bo.op
		}
		results, err := b.conn.sendOps(ops)
		for i, bo := range batch {
			if err != nil {
				// The caller retries with the same idem; any sub-op the node
				// did apply before the envelope was lost replays from its
				// cache instead of double-applying.
				bo.err = err
			} else {
				bo.raw = results[i]
			}
			close(bo.done)
		}
	}
}
