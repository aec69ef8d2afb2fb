package main

import (
	"fmt"
	"sync/atomic"

	"github.com/pombm/pombm/internal/hst"
)

// pool is the harness's shadow of the worker pool, kept with atomics so
// every client checks every answer without a lock. It is conservative by
// construction: a unit is marked available before the call that returns it
// and taken only after the call that assigned it, so the shadow never
// holds fewer units than the program and a correct program can never trip
// it. A check that trips counts as a failed operation and fails the run.
type pool struct {
	capacity int32
	// avail is the units the harness believes each worker has in the pool;
	// at the tape index of the worker's current true point (and of the
	// code it last reported).
	avail []atomic.Int32
	at    []atomic.Uint32
	// goneAt orders withdrawals against submits: 0 = live, −1 = withdrawal
	// in flight, otherwise the churn-clock reading once it completed. A
	// submit that started after that reading and still got the worker was
	// answered from a pool the worker had provably left.
	goneAt []atomic.Int64
	clock  atomic.Int64
	// next is the index the next newly registered worker takes.
	next atomic.Int32

	attempted, failed atomic.Int64
	firstFailure      atomic.Pointer[string]
}

func newPool(workers, extra int, capacity int) *pool {
	p := &pool{
		capacity: int32(capacity),
		avail:    make([]atomic.Int32, workers+extra),
		at:       make([]atomic.Uint32, workers+extra),
		goneAt:   make([]atomic.Int64, workers+extra),
	}
	for w := 0; w < workers; w++ {
		p.avail[w].Store(int32(capacity))
		p.at[w].Store(uint32(w))
	}
	p.next.Store(int32(workers))
	return p
}

func (p *pool) fail(format string, args ...any) {
	p.failed.Add(1)
	if p.firstFailure.Load() == nil {
		msg := fmt.Sprintf(format, args...)
		p.firstFailure.CompareAndSwap(nil, &msg)
	}
}

// took records that cycle's submit, which started at churn-clock reading
// since, was answered with worker w, and reports whether that was legal.
func (p *pool) took(cycle, w int, since int64) bool {
	if w < 0 || w >= int(p.next.Load()) {
		p.fail("cycle %d: assigned unknown worker %d", cycle, w)
		return false
	}
	// Decrement first, then read goneAt: a withdrawal flags the worker
	// before it decrements, so if this decrement saw the withdrawal's, the
	// flag is already visible and the race is recognised as one.
	n := p.avail[w].Add(-1)
	g := p.goneAt[w].Load()
	if g > 0 && g <= since {
		p.fail("cycle %d: assigned worker %d, withdrawn before the submit began", cycle, w)
		return false
	}
	if n < 0 && g == 0 {
		p.fail("cycle %d: worker %d assigned with no unit in the pool (unit assigned twice)", cycle, w)
		return false
	}
	return true
}

// giveBack marks one unit of w available at tape index ref. Call it
// before the program call that returns the unit.
func (p *pool) giveBack(w, ref int) {
	p.at[w].Store(uint32(ref))
	p.avail[w].Add(1)
}

// pickIdle turns a tape pick into a live worker the harness believes idle,
// or −1 when 64 probes find none.
func (p *pool) pickIdle(pick uint32) int {
	total := uint32(p.next.Load())
	for j := uint32(0); j < 64; j++ {
		w := int((pick + j) % total)
		if p.avail[w].Load() == p.capacity && p.goneAt[w].Load() == 0 {
			return w
		}
	}
	return -1
}

// expectLen is the pool size the program must report once every client has
// stopped and every assignment was handed back.
func (p *pool) expectLen() (workers, units int) {
	for w := 0; w < int(p.next.Load()); w++ {
		if p.goneAt[w].Load() == 0 {
			workers++
			units += int(p.avail[w].Load())
		}
	}
	return workers, units
}

// mirror is the brute-force statement of the sequential rule the program
// implements with tries, shards and nodes: a task goes to the available
// worker at the minimum LCA level, ties to the lowest registration id. It
// scans every worker for every task; the pre-check replays the head of the
// tape against it with one client, where the rule has exactly one answer.
type mirror struct {
	tree  *hst.Tree
	codes []hst.Code // by worker index; "" = not in the pool
	units []int
}

func newMirror(tree *hst.Tree, size int) *mirror {
	return &mirror{tree: tree, codes: make([]hst.Code, size), units: make([]int, size)}
}

func (m *mirror) put(w int, code hst.Code, units int) {
	m.codes[w] = code
	m.units[w] += units
}

func (m *mirror) drop(w int) { m.codes[w], m.units[w] = "", 0 }

// take consumes one unit of w.
func (m *mirror) take(w int) {
	if m.units[w]--; m.units[w] == 0 {
		m.codes[w] = ""
	}
}

// nearest returns the rule's answer for a task code, −1 on an empty pool.
func (m *mirror) nearest(task hst.Code) (w, level int) {
	w, level = -1, m.tree.Depth()+1
	for i, c := range m.codes {
		if c == "" {
			continue
		}
		if l := m.tree.LCALevel(task, c); l < level {
			w, level = i, l
		}
	}
	return w, level
}

// has reports whether w holds a unit (the feasibility-only check under
// batch-optimal, whose windows are free to trade nearest for total cost).
func (m *mirror) has(w int) bool { return w >= 0 && w < len(m.units) && m.units[w] > 0 }
