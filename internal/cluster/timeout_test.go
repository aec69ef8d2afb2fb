package cluster

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/platform"
)

// slowPaths wraps a node handler, delaying the listed paths — a backend
// that is up but too slow, the failure mode a flat client timeout
// mishandles.
func slowPaths(h http.Handler, delay time.Duration, paths ...string) http.Handler {
	slow := map[string]bool{}
	for _, p := range paths {
		slow[p] = true
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slow[r.URL.Path] {
			time.Sleep(delay)
		}
		h.ServeHTTP(w, r)
	})
}

// TestOpDeadlineTypedError pins the deadline contract: an operation that
// outlives its per-op deadline — here in the dial of the stream it would
// travel on — comes back as a typed retryable unavailable error — not a
// transport failure (which would trigger a blind retry and double the
// stall), not a raw context error.
func TestOpDeadlineTypedError(t *testing.T) {
	ts := httptest.NewServer(slowPaths(NodeHandler(NewNode()), 300*time.Millisecond, PathNodeOps))
	defer ts.Close()
	conn := DialNodeTimeouts(ts.URL, NodeTimeouts{Op: 20 * time.Millisecond})

	_, err := conn.Do(OpRequest{Kind: OpStatus})
	if err == nil {
		t.Fatal("status outlived its deadline without error")
	}
	var pe *platform.Error
	if !errors.As(err, &pe) {
		t.Fatalf("deadline error is untyped: %v", err)
	}
	if pe.Code != platform.CodeUnavailable || !pe.Retryable {
		t.Fatalf("deadline error = %+v, want retryable %s", pe, platform.CodeUnavailable)
	}
	if isTransport(err) {
		t.Fatalf("deadline expiry classified as transport failure: %v", err)
	}
	// A fast call on the same connection still works: the deadline is
	// per-call, not a poisoned client.
	if err := conn.Init(InitRequest{Tree: buildTree(t, 7)}); err != nil {
		t.Fatalf("fast init after a timed-out status: %v", err)
	}
}

// TestPrepareDeadlineIndependent pins the two deadline classes apart: a
// rotation prepare slower than the op deadline but within the prepare
// deadline succeeds, while the same slowness on a routed op times out.
// Under the old flat client timeout these were inseparable — large
// rotations timed out forever or every op waited minutes.
func TestPrepareDeadlineIndependent(t *testing.T) {
	tree := buildTree(t, 7)
	next := buildTree(t, 8)
	node := NewNode()
	ts := httptest.NewServer(slowPaths(NodeHandler(node), 150*time.Millisecond, PathNodePrepare, PathNodeOps))
	defer ts.Close()
	conn := DialNodeTimeouts(ts.URL, NodeTimeouts{Op: 50 * time.Millisecond, Prepare: 5 * time.Second})

	if err := conn.Init(InitRequest{Tree: tree}); err != nil {
		t.Fatal(err)
	}
	// The slow routed op breaches its 50ms budget.
	_, err := conn.Do(OpRequest{Kind: OpInsert, Idem: "idem-ins", Code: []byte(tree.CodeOf(0)), ID: 1, Capacity: 1})
	var pe *platform.Error
	if !errors.As(err, &pe) || pe.Code != platform.CodeUnavailable {
		t.Fatalf("slow insert error = %v, want typed unavailable", err)
	}
	// The equally slow prepare fits comfortably in the prepare budget.
	inserts := []engine.EpochInsert{{Code: next.CodeOf(0), ID: 3, Cap: 1}}
	if err := conn.Prepare(2, next, nextOf(inserts), "idem-prep"); err != nil {
		t.Fatalf("prepare under its own deadline: %v", err)
	}
	// Commit and status are ops: they go over a connection whose op
	// deadline the slow upgrade fits.
	patient := DialNodeTimeouts(ts.URL, NodeTimeouts{Op: 5 * time.Second})
	if _, err := patient.Do(OpRequest{Kind: OpCommit, Idem: "idem-commit", Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	st, err := patient.Do(OpRequest{Kind: OpStatus})
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 2 || st.Len != 1 {
		t.Fatalf("post-commit status %+v, want epoch 2 with 1 worker", st)
	}
}
