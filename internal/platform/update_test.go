package platform

import (
	"testing"

	"github.com/pombm/pombm/internal/geo"
)

func TestReregisterDirect(t *testing.T) {
	s := newTestServer(t)
	o, err := NewObfuscator(s.Publication(), 3)
	if err != nil {
		t.Fatal(err)
	}
	w := Worker{ID: "w1", Loc: geo.Pt(10, 10)}
	if err := w.Register(s, o); err != nil {
		t.Fatal(err)
	}
	// Move: the report changes but the worker stays available.
	newCode := o.Obfuscate(geo.Pt(150, 150))
	resp := s.Reregister(ReregisterRequest{WorkerID: "w1", Code: []byte(newCode)})
	if !resp.OK {
		t.Fatalf("reregister failed: %s", resp.Reason)
	}
	if st := s.Stats(); st.AvailableWorkers != 1 {
		t.Errorf("available = %d after move", st.AvailableWorkers)
	}
	// Unknown worker.
	if resp := s.Reregister(ReregisterRequest{WorkerID: "nope", Code: []byte(newCode)}); resp.OK {
		t.Error("unknown worker accepted")
	}
	// Bad code.
	if resp := s.Reregister(ReregisterRequest{WorkerID: "w1", Code: []byte{1}}); resp.OK {
		t.Error("malformed code accepted")
	}
	// Assign the worker, then moving must fail.
	task := Task{ID: "t1", Loc: geo.Pt(150, 150)}
	if _, ok, err := task.Submit(s, o); err != nil || !ok {
		t.Fatalf("assignment failed: %v", err)
	}
	if resp := s.Reregister(ReregisterRequest{WorkerID: "w1", Code: []byte(newCode)}); resp.OK {
		t.Error("assigned worker allowed to move")
	}
}

func TestReregisterAffectsMatching(t *testing.T) {
	s := newTestServer(t)
	// With a huge ε the obfuscation is effectively the identity, so
	// matching follows the reported geometry deterministically.
	pub := s.Publication()
	pub.Epsilon = 100
	oTight, err := NewObfuscator(pub, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := Worker{ID: "a", Loc: geo.Pt(10, 10)}
	b := Worker{ID: "b", Loc: geo.Pt(190, 190)}
	if err := a.Register(s, oTight); err != nil {
		t.Fatal(err)
	}
	if err := b.Register(s, oTight); err != nil {
		t.Fatal(err)
	}
	// Move worker a onto the future task's own leaf: after the move the
	// task must match a, proving the index reflects the update.
	taskLoc := geo.Pt(60, 60)
	if resp := s.Reregister(ReregisterRequest{WorkerID: "a", Code: []byte(oTight.Obfuscate(taskLoc))}); !resp.OK {
		t.Fatalf("move failed: %s", resp.Reason)
	}
	task := Task{ID: "t", Loc: taskLoc}
	wid, ok, err := task.Submit(s, oTight)
	if err != nil || !ok {
		t.Fatalf("assignment failed: %v", err)
	}
	if wid != "a" {
		t.Errorf("task matched %s, want the moved worker a", wid)
	}
}
