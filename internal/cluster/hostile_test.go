package cluster

import (
	"bytes"
	"math"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
)

// bentMineNode answers Mine with its healthy inner node's honest report
// bent by bend: a backend that speaks the protocol's shape but not its
// contract. bend reports whether the report had what it wanted to bend.
type bentMineNode struct {
	NodeConn
	bend func(wm *engine.WindowMine) bool
	bent bool
}

func (b *bentMineNode) Mine(codes []hst.Code, k int, epoch int64) (*engine.WindowMine, error) {
	wm, err := b.NodeConn.Mine(codes, k, epoch)
	if err != nil {
		return nil, err
	}
	if b.bend != nil && b.bend(wm) {
		b.bent = true
	}
	return wm, nil
}

// TestHostileMineAnswersUnmatched: whatever a node reports from Mine, the
// coordinator must not panic and must not spend anyone's capacity on it. A
// report that breaks the protocol is a failed mine — the window answers
// all-None and the pool keeps every unit. Each case bends one field of an
// otherwise honest report; the unbent control proves the same window would
// have matched.
func TestHostileMineAnswersUnmatched(t *testing.T) {
	const k = 4
	tree := buildTree(t, 7)
	layout := engine.LayoutFor(tree, 0)
	// bend applies f to every candidate of the report's first non-empty own
	// region or pad list (node 0 holds workers only in shards it owns, so a
	// non-empty pad list is one the coordinator gathers).
	bend := func(pads bool, f func(c *hst.Candidate)) func(*engine.WindowMine) bool {
		return func(wm *engine.WindowMine) bool {
			lists := wm.Own
			if pads {
				lists = wm.Pads
			}
			for _, l := range lists {
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
	bendOwn := func(f func(c *hst.Candidate)) func(*engine.WindowMine) bool { return bend(false, f) }
	bendPad := func(f func(c *hst.Candidate)) func(*engine.WindowMine) bool { return bend(true, f) }
	// A leaf another node's shard group owns: well-formed, wrong place.
	var foreign hst.Code
	for i := 0; i < tree.NumPoints(); i++ {
		if c := tree.CodeOf(i); layout.GroupOf(c)%2 == 1 {
			foreign = c
			break
		}
	}
	overlong := func(l []hst.Candidate) []hst.Candidate {
		for len(l) <= k {
			l = append(l, l[0])
		}
		return l
	}
	cases := []struct {
		name string
		bend func(*engine.WindowMine) bool
	}{
		{"level past the root", bendOwn(func(c *hst.Candidate) { c.Level = 2000 })},
		{"negative level", bendOwn(func(c *hst.Candidate) { c.Level = -1 })},
		{"pad level past the root", bendPad(func(c *hst.Candidate) { c.Level = 2000 })},
		{"empty code", bendOwn(func(c *hst.Candidate) { c.Code = "" })},
		{"empty pad code", bendPad(func(c *hst.Candidate) { c.Code = "" })},
		{"short code", bendOwn(func(c *hst.Candidate) { c.Code = c.Code[:1] })},
		{"over-long code", bendOwn(func(c *hst.Candidate) { c.Code += c.Code })},
		{"digit past the degree", bendOwn(func(c *hst.Candidate) { c.Code = hst.Code([]byte{255}) + c.Code[1:] })},
		{"code another node owns", bendOwn(func(c *hst.Candidate) { c.Code = foreign })},
		{"pad code another node owns", bendPad(func(c *hst.Candidate) { c.Code = foreign })},
		{"id past int32", bendOwn(func(c *hst.Candidate) { c.ID += math.MaxInt32 + 1 })},
		{"negative id", bendPad(func(c *hst.Candidate) { c.ID = -1 })},
		{"zero capacity", bendOwn(func(c *hst.Candidate) { c.Cap = 0 })},
		{"capacity past int32", bendPad(func(c *hst.Candidate) { c.Cap = math.MaxInt32 + 1 })},
		{"own region longer than k", func(wm *engine.WindowMine) bool {
			for j, l := range wm.Own {
				if len(l) > 0 {
					wm.Own[j] = overlong(l)
					return true
				}
			}
			return false
		}},
		{"pad list longer than k", func(wm *engine.WindowMine) bool {
			for s, l := range wm.Pads {
				if len(l) > 0 {
					wm.Pads[s] = overlong(l)
					return true
				}
			}
			return false
		}},
		{"an own region missing", func(wm *engine.WindowMine) bool {
			wm.Own = wm.Own[:len(wm.Own)-1]
			return true
		}},
		{"an own region too many", func(wm *engine.WindowMine) bool {
			wm.Own = append(wm.Own, nil)
			return true
		}},
		{"more pad lists than shards", func(wm *engine.WindowMine) bool {
			wm.Pads = append(wm.Pads, wm.Pads...)
			return true
		}},
		{"negative pool", func(wm *engine.WindowMine) bool {
			wm.Pool = -wm.Pool
			return true
		}},
		{"honest (control)", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol, err := engine.PolicyByName("batch-optimal:k=4")
			if err != nil {
				t.Fatal(err)
			}
			bad := &bentMineNode{NodeConn: LocalNode(NewNode()), bend: tc.bend}
			core, err := newFanCore([]NodeConn{bad, LocalNode(NewNode())}, tree, 0, pol, "batch-optimal:k=4", 1)
			if err != nil {
				t.Fatal(err)
			}
			// One capacity-2 worker on every other leaf: short own regions,
			// so pads are in play, and multi-unit columns.
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
	if st, err := n.Status(0); err != nil || st.Len != 1 || st.Units != math.MaxInt32 {
		t.Fatalf("status after the refusal: %+v, %v; want one worker holding MaxInt32 units", st, err)
	}
}
