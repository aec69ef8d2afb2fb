package cluster

import (
	"sync"

	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/wire"
)

// maxOpsPerEnvelope bounds one flush so a burst cannot build an
// arbitrarily large request body (and a lost envelope retries a bounded
// amount of work).
const maxOpsPerEnvelope = 128

// batchedOp is one op's place in an envelope: what is sent and where its
// sub-result lands. done and err serve an op that queued; one shipped by
// its caller lives on that caller's stack and has neither.
type batchedOp struct {
	op   OpRequest
	res  opResult
	err  error
	done chan struct{}
}

// batcher ships the ops bound for one node as /v2/node/ops envelopes; every
// httpNode owns one, so coalescing is a property of the HTTP transport and
// nothing above NodeConn knows of it.
//
// A slot is a stream: whoever holds one of the node's slots owns one
// upgraded /v2/node/ops connection (see wire.Stream) for one frame out and one
// back, taken off the idle list with the slot and put back with it. A slot
// that finds the list empty dials — so streams are dialed lazily, there are
// never more than slots of them, and a failure that the idle ones share (a
// restarted node, an idle reap) closes them all at once.
//
// An op still waits only when every slot is busy. The node has slots
// envelopes in flight at most — GOMAXPROCS, read at dial: an envelope is CPU
// work on the coordinator (encode, write, read, scan), more of them than
// processors only adds scheduling, and past that point queueing is free
// coalescing. An op that finds a slot free ships at once, alone, on its
// caller's goroutine: no queue entry, no channel, no goroutine, so a
// sequential caller stream is singleton envelopes at the cost of a frame
// each. An op that finds none queues, and whoever frees a slot while ops are
// queued hands the slot — stream and all — to a flusher goroutine, which
// drains the queue in envelope-sized batches until it is empty: a window's
// 64 concurrent commits leave as slots singletons plus an envelope or two
// per node.
//
// Coalescing is a legal serialization: the ops in one envelope are
// concurrent with each other (each caller is blocked in its own request),
// so they have no defined order, and the node applies the envelope's ops
// in sequence. Order between non-concurrent ops is preserved — an op
// issued after another completed necessarily lands in a later envelope.
// The same argument covers a stream: the node answers its frames in order.
type batcher struct {
	conn  *httpNode // ships the envelopes
	slots int

	mu       sync.Mutex
	pending  []*batchedOp   // non-empty only while every slot is taken
	inflight int            // slots taken
	idle     []*wire.Stream // streams no slot holds; len(idle) + inflight ≤ slots
	closed   bool           // no op ships and no stream is kept any more
}

// errClosed refuses an op on a connection that was closed.
var errClosed = &platform.Error{Code: platform.CodeUnavailable, Message: "cluster: the node connection is closed"}

// do ships one op and blocks until its sub-result is back. An
// envelope-level failure (transport, refused envelope) is returned to every
// op the envelope carried; a per-op refusal is the result's own Err.
func (b *batcher) do(op OpRequest) (opResult, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return opResult{}, errClosed
	}
	if b.inflight == b.slots {
		bo := &batchedOp{op: op, done: make(chan struct{})}
		b.pending = append(b.pending, bo)
		b.mu.Unlock()
		<-bo.done
		return bo.res, bo.err
	}
	b.inflight++
	var s *wire.Stream
	if last := len(b.idle) - 1; last >= 0 {
		s, b.idle = b.idle[last], b.idle[:last]
	}
	b.mu.Unlock()
	bo := batchedOp{op: op}
	s, err := b.conn.sendOps(s, []*batchedOp{&bo})
	b.release(s)
	return bo.res, err
}

// release gives up the caller's slot and its stream (nil: the exchange cost
// the slot its stream): to a flusher if ops queued behind it, back to the
// node otherwise.
func (b *batcher) release(s *wire.Stream) {
	b.mu.Lock()
	if len(b.pending) > 0 {
		b.mu.Unlock()
		go b.flush(s)
		return
	}
	b.park(s)
	b.mu.Unlock()
}

// park returns a slot and its stream. Caller holds mu.
func (b *batcher) park(s *wire.Stream) {
	b.inflight--
	switch {
	case s == nil:
	case b.closed:
		s.Close()
	default:
		b.idle = append(b.idle, s)
	}
}

// close closes the idle streams — the node's ends with them, at once, not
// when it reaps them — and from here on refuses every op and closes a
// stream in flight when its slot comes back.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.dropIdle()
}

// dropIdle closes every idle stream: an exchange on one of the node's
// streams failed for a reason the idle ones share, and the retry must dial
// rather than meet it again on each of them in turn.
func (b *batcher) dropIdle() {
	b.mu.Lock()
	idle := b.idle
	b.idle = nil
	b.mu.Unlock()
	for _, s := range idle {
		s.Close()
	}
}

// flush owns one slot and drains the queue through it, then returns the
// slot.
func (b *batcher) flush(s *wire.Stream) {
	for {
		b.mu.Lock()
		batch := b.pending
		if len(batch) == 0 {
			b.park(s)
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

		// On failure the callers retry with the same idems; any sub-op the
		// node did apply before the envelope was lost replays from its cache
		// instead of double-applying.
		var err error
		s, err = b.conn.sendOps(s, batch)
		for _, bo := range batch {
			bo.err = err
			close(bo.done)
		}
	}
}
