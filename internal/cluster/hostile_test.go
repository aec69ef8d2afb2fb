package cluster

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
)

// bentNode answers an op of one kind with its healthy inner node's honest
// answer bent by bend: a backend that speaks the protocol's shape but not
// its contract. bend reports whether the answer had what it wanted to bend.
type bentNode struct {
	NodeConn
	kind string
	bend func(res *OpResult) bool
	bent bool
}

func (b *bentNode) Do(op OpRequest) (OpResult, error) {
	res, err := b.NodeConn.Do(op)
	if err == nil && op.Kind == b.kind && b.bend != nil && b.bend(&res) {
		b.bent = true
	}
	return res, err
}

// TestHostileMineAnswersUnmatched: whatever a node reports to a mine, the
// coordinator must not panic and must not spend anyone's capacity on it. A
// report that breaks the protocol is a failed mine — the window answers
// all-None and the pool keeps every unit. Each case bends one field of an
// otherwise honest report; the unbent control proves the same window would
// have matched.
func TestHostileMineAnswersUnmatched(t *testing.T) {
	const k = 4
	tree := buildTree(t, 7)
	// bendOwn applies f to every candidate of the report's first non-empty
	// own region.
	bendOwn := func(f func(c *hst.Candidate)) func(*OpResult) bool {
		return func(wm *OpResult) bool {
			for _, l := range wm.Own {
				for i := range l {
					f(&l[i])
				}
				if len(l) > 0 {
					return true
				}
			}
			return false
		}
	}
	// A code the other node owns: well-formed, wrong place. Every leaf of
	// the seed-7 tree has first digit 0, so it is leaf 0's under digit 1.
	foreign := hst.Code(append([]byte{1}, tree.CodeOf(0)[1:]...))
	overlong := func(l []hst.Candidate) []hst.Candidate {
		for len(l) <= k {
			l = append(l, l[0])
		}
		return l
	}
	cases := []struct {
		name string
		bend func(*OpResult) bool
	}{
		{"level past the root", bendOwn(func(c *hst.Candidate) { c.Level = 2000 })},
		{"negative level", bendOwn(func(c *hst.Candidate) { c.Level = -1 })},
		{"empty code", bendOwn(func(c *hst.Candidate) { c.Code = "" })},
		{"short code", bendOwn(func(c *hst.Candidate) { c.Code = c.Code[:1] })},
		{"over-long code", bendOwn(func(c *hst.Candidate) { c.Code += c.Code })},
		{"digit past the degree", bendOwn(func(c *hst.Candidate) { c.Code = hst.Code([]byte{255}) + c.Code[1:] })},
		{"code another node owns", bendOwn(func(c *hst.Candidate) { c.Code = foreign })},
		{"id past int32", bendOwn(func(c *hst.Candidate) { c.ID += math.MaxInt32 + 1 })},
		{"negative id", bendOwn(func(c *hst.Candidate) { c.ID = -1 })},
		{"zero capacity", bendOwn(func(c *hst.Candidate) { c.Cap = 0 })},
		{"capacity past int32", bendOwn(func(c *hst.Candidate) { c.Cap = math.MaxInt32 + 1 })},
		{"own region longer than k", func(wm *OpResult) bool {
			for j, l := range wm.Own {
				if len(l) > 0 {
					wm.Own[j] = overlong(l)
					return true
				}
			}
			return false
		}},
		{"an own region missing", func(wm *OpResult) bool {
			wm.Own = wm.Own[:len(wm.Own)-1]
			return true
		}},
		{"an own region too many", func(wm *OpResult) bool {
			wm.Own = append(wm.Own, nil)
			return true
		}},
		{"negative pool", func(wm *OpResult) bool {
			wm.Pool = -wm.Pool
			return true
		}},
		{"level 0 for every candidate", func(wm *OpResult) bool {
			lied := false
			for _, l := range wm.Own {
				for i := range l {
					lied = lied || l[i].Level != 0
					l[i].Level = 0
				}
			}
			return lied
		}},
		{"honest (control)", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol, err := engine.PolicyByName("batch-optimal:k=4")
			if err != nil {
				t.Fatal(err)
			}
			bad := &bentNode{NodeConn: LocalNode(NewNode()), kind: OpMine, bend: tc.bend}
			core, err := newFanCore([]NodeConn{bad, LocalNode(NewNode())}, tree, pol, 1)
			if err != nil {
				t.Fatal(err)
			}
			// One capacity-2 worker on every other leaf: short own regions,
			// so other nodes' candidates are in play, and multi-unit columns.
			for i := 0; i < tree.NumPoints(); i += 2 {
				if err := core.InsertCapEpoch(tree.CodeOf(i), i, 2, 0); err != nil {
					t.Fatal(err)
				}
			}
			units, pool := core.CapacityUnits(), core.Len()
			codes := make([]hst.Code, tree.NumPoints())
			for i := range codes {
				codes[i] = tree.CodeOf(i)
			}
			ids, _ := core.AssignBatch(codes)
			assigned := 0
			for _, id := range ids {
				if id != engine.None {
					assigned++
				}
			}
			if tc.bend == nil {
				if assigned == 0 || core.CapacityUnits() != units-assigned {
					t.Fatalf("control window assigned %d tasks, units %d → %d", assigned, units, core.CapacityUnits())
				}
				return
			}
			if !bad.bent {
				t.Fatal("the honest report had nothing for this case to bend")
			}
			if assigned != 0 {
				t.Errorf("%d tasks assigned over a malformed mine", assigned)
			}
			if core.CapacityUnits() != units || core.Len() != pool {
				t.Errorf("pool moved: units %d → %d, workers %d → %d", units, core.CapacityUnits(), pool, core.Len())
			}
		})
	}
}

// TestHostilePeekIsRefused: a peek's level and id steer a greedy election,
// and a pop's answer is what the platform books, so a found peek whose level
// the tree cannot have or whose id is negative, a fast-path pop outside
// [0, depth − 1] or with a negative id, and an elected pop that answers
// anyone but the peeked worker at the peeked level are the node failing —
// the typed retryable unavailable refusal naming it, as for an unreachable
// node — and never an assignment. Node 0 holds the one worker and bends its
// answers. The task under first digit 1 routes to node 1, which holds
// nobody, so its fast pop finds no one and the election runs; the task at
// the worker's own leaf is found by node 0's fast pop.
func TestHostilePeekIsRefused(t *testing.T) {
	tree := buildTree(t, 7)
	// Every leaf of the seed-7 tree has first digit 0; the elected task's
	// code is leaf 0's under first digit 1, which the tree has but no point.
	home := tree.CodeOf(0)
	elected := hst.Code(append([]byte{1}, home[1:]...))
	for _, tc := range []struct {
		name  string
		kind  string
		task  hst.Code
		bend  func(*OpResult)
		units int // the pool's units after a bent answer: a bent pop took one
	}{
		{"level -1", OpPeek, elected, func(r *OpResult) { r.Level = -1 }, 2},
		{"level past the depth", OpPeek, elected, func(r *OpResult) { r.Level = tree.Depth() + 1 }, 2},
		{"id -1", OpPeek, elected, func(r *OpResult) { r.ID = -1 }, 2},
		{"elected pop of another id", OpPop, elected, func(r *OpResult) { r.ID = 5 }, 1},
		{"elected pop at another level", OpPop, elected, func(r *OpResult) { r.Level = 0 }, 1},
		{"elected pop of id -7 at level 99", OpPop, elected, func(r *OpResult) { r.ID, r.Level = -7, 99 }, 1},
		{"fast pop at the root level", OpPop, home, func(r *OpResult) { r.Level = tree.Depth() }, 1},
		{"fast pop at level -1", OpPop, home, func(r *OpResult) { r.Level = -1 }, 1},
		{"fast pop of id -7 at level 99", OpPop, home, func(r *OpResult) { r.ID, r.Level = -7, 99 }, 1},
		{"honest (control)", OpPeek, elected, nil, 1},
		{"honest fast pop (control)", OpPop, home, nil, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := &bentNode{NodeConn: LocalNode(NewNode()), kind: tc.kind, bend: func(r *OpResult) bool {
				if tc.bend != nil && r.Found {
					tc.bend(r)
				}
				return r.Found
			}}
			pol, err := engine.PolicyByName("capacity-greedy")
			if err != nil {
				t.Fatal(err)
			}
			core, err := newFanCore([]NodeConn{bad, LocalNode(NewNode())}, tree, pol, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.InsertCapEpoch(home, 4, 2, 0); err != nil {
				t.Fatal(err)
			}
			id, lvl, ok, err := core.AssignErr(tc.task)
			if !bad.bent {
				t.Fatalf("node 0 was never asked a %s that found the worker", tc.kind)
			}
			if tc.bend == nil {
				if want := tree.LCALevel(tc.task, home); err != nil || !ok || id != 4 || lvl != want {
					t.Fatalf("control assigned (%d, %d, %v, %v), want worker 4 at level %d", id, lvl, ok, err, want)
				}
				return
			}
			var pe *platform.Error
			if !errors.As(err, &pe) || pe.Code != platform.CodeUnavailable || !pe.Retryable || !strings.Contains(pe.Message, "node 0") {
				t.Fatalf("a bent %s answered (%d, %d, %v, %v), want the retryable unavailable refusal naming node 0", tc.kind, id, lvl, ok, err)
			}
			if ok || id != engine.None {
				t.Errorf("worker %d assigned over a bent %s", id, tc.kind)
			}
			if core.CapacityUnits() != tc.units || core.Len() != 1 {
				t.Errorf("pool: %d units over %d workers, want %d over 1", core.CapacityUnits(), core.Len(), tc.units)
			}
		})
	}
}

// A peer's add-capacity for a worker already at the 2³¹−1 unit ceiling must
// come back as a refusal, uncached, with the node's pool untouched: the
// engine once read the index's overflow refusal as "item gone" and inserted
// a second item under the same id.
func TestAddCapacityOnSaturatedWorkerRefuses(t *testing.T) {
	tree := buildTree(t, 5)
	n := NewNode()
	if err := n.Init(InitRequest{Tree: tree, Policy: "capacity-greedy"}); err != nil {
		t.Fatal(err)
	}
	code := []byte(tree.CodeOf(3))
	if out, applied := execOp(n, &OpRequest{Kind: OpInsert, Code: code, ID: 7, Capacity: math.MaxInt32, Idem: "i-1"}, nil); !applied {
		t.Fatalf("insert refused: %s", out)
	}
	out, applied := execOp(n, &OpRequest{Kind: OpAddCapacity, Code: code, ID: 7, Idem: "a-1"}, nil)
	if applied || !bytes.HasPrefix(out, []byte(`{"ok":false,"error":{`)) {
		t.Fatalf("add-capacity on a saturated worker answered %s (cacheable %v), want an uncached refusal", out, applied)
	}
	if st, err := n.Do(OpRequest{Kind: OpStatus}); err != nil || st.Len != 1 || st.Units != math.MaxInt32 {
		t.Fatalf("status after the refusal: %+v, %v; want one worker holding MaxInt32 units", st, err)
	}
}
