package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/wiretap"
)

// TestNodeConnParity drives one tape of routed operations through the two
// NodeConn implementations — LocalNode, the in-process reference, and the
// HTTP connection, whose five routed ops exist only as /v2/node/ops sub-ops
// in a stream's frames — over nodes in the same state. Every step must
// return the same values and, for a refusal, the same typed error: the same
// wire code and retryability once folded by nodeError, and the engine
// staleness sentinel on both sides of the wire.
func TestNodeConnParity(t *testing.T) {
	tree := buildTree(t, 7)
	ts := httptest.NewServer(NodeHandler(NewNode()))
	defer ts.Close()
	tap, hc := wiretap.New(t, platform.NewTransport())
	local, remote := LocalNode(NewNode()), DialNodeClient(ts.URL, hc)

	short := tree.CodeOf(0)[:1]
	// wantErr is the wire code a step must be refused with ("" = success).
	steps := []struct {
		name    string
		wantErr string
		routed  bool // one of the five ops that travel as envelope sub-ops
		run     func(c NodeConn) (string, error)
	}{
		{"insert before init", platform.CodeConflict, true, func(c NodeConn) (string, error) {
			return "", c.Insert(tree.CodeOf(0), 1, 2, 0, "p-1")
		}},
		{"consume before init", platform.CodeConflict, true, func(c NodeConn) (string, error) {
			return "", c.Consume(tree.CodeOf(0), 1, 0, "p-2")
		}},
		{"init", "", false, func(c NodeConn) (string, error) {
			return "", c.Init(InitRequest{Tree: tree, Policy: "capacity-greedy", Idem: "p-3"})
		}},
		{"insert capacity 2", "", true, func(c NodeConn) (string, error) {
			return "", c.Insert(tree.CodeOf(0), 1, 2, engine.FirstEpoch, "p-4")
		}},
		{"insert default capacity", "", true, func(c NodeConn) (string, error) {
			return "", c.Insert(tree.CodeOf(5), 2, 0, 0, "p-5")
		}},
		{"insert stale epoch pin", platform.CodeStaleEpoch, true, func(c NodeConn) (string, error) {
			return "", c.Insert(tree.CodeOf(1), 3, 1, 99, "p-6")
		}},
		{"insert malformed code", platform.CodeBadRequest, true, func(c NodeConn) (string, error) {
			return "", c.Insert(short, 3, 1, 0, "p-7")
		}},
		{"insert id outside int32", platform.CodeBadRequest, true, func(c NodeConn) (string, error) {
			return "", c.Insert(tree.CodeOf(1), 1<<40, 1, 0, "p-8")
		}},
		{"assign-subtree pops the nearest", "", true, func(c NodeConn) (string, error) {
			id, lvl, found, err := c.AssignSubtree(tree.CodeOf(0), engine.FirstEpoch, "p-9")
			return fmt.Sprint(id, lvl, found), err
		}},
		{"assign-subtree stale epoch pin", platform.CodeStaleEpoch, true, func(c NodeConn) (string, error) {
			id, lvl, found, err := c.AssignSubtree(tree.CodeOf(0), 99, "p-10")
			return fmt.Sprint(id, lvl, found), err
		}},
		{"assign-subtree malformed code", "", true, func(c NodeConn) (string, error) {
			id, lvl, found, err := c.AssignSubtree(short, 0, "p-11")
			return fmt.Sprint(id, lvl, found), err
		}},
		{"add-capacity returns the unit", "", true, func(c NodeConn) (string, error) {
			return "", c.AddCapacity(tree.CodeOf(0), 1, engine.FirstEpoch, "p-12")
		}},
		{"add-capacity stale epoch pin", platform.CodeStaleEpoch, true, func(c NodeConn) (string, error) {
			return "", c.AddCapacity(tree.CodeOf(0), 1, 99, "p-13")
		}},
		{"consume a pooled unit", "", true, func(c NodeConn) (string, error) {
			return "", c.Consume(tree.CodeOf(0), 1, engine.FirstEpoch, "p-14")
		}},
		{"consume an absent worker", platform.CodeBadRequest, true, func(c NodeConn) (string, error) {
			return "", c.Consume(tree.CodeOf(0), 77, 0, "p-15")
		}},
		{"consume malformed code", platform.CodeBadRequest, true, func(c NodeConn) (string, error) {
			return "", c.Consume(short, 1, 0, "p-16")
		}},
		{"remove reports pooled units", "", true, func(c NodeConn) (string, error) {
			units, found, err := c.Remove(tree.CodeOf(0), 1, "p-17")
			return fmt.Sprint(units, found), err
		}},
		{"remove an absent worker", "", true, func(c NodeConn) (string, error) {
			units, found, err := c.Remove(tree.CodeOf(0), 1, "p-18")
			return fmt.Sprint(units, found), err
		}},
		{"status", "", false, func(c NodeConn) (string, error) {
			st, err := c.Status(0)
			return fmt.Sprint(st.Epoch, st.Len, st.Units), err
		}},
	}
	for _, step := range steps {
		framesBefore, postsBefore := tap.Sent()
		wantVal, wantErr := step.run(local)
		gotVal, gotErr := step.run(remote)
		if gotVal != wantVal {
			t.Errorf("%s: http answered %q, local %q", step.name, gotVal, wantVal)
		}
		if (wantErr == nil) != (step.wantErr == "") {
			t.Fatalf("%s: local error %v, want code %q", step.name, wantErr, step.wantErr)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: http error %v, local %v", step.name, gotErr, wantErr)
		}
		if wantErr != nil {
			want, got := nodeError(wantErr, 0), nodeError(gotErr, 0)
			if want.Code != step.wantErr || got.Code != want.Code || got.Retryable != want.Retryable {
				t.Errorf("%s: http refused %s (retryable %v), local %s (retryable %v), want %s",
					step.name, got.Code, got.Retryable, want.Code, want.Retryable, step.wantErr)
			}
			if stale := errors.Is(wantErr, engine.ErrStaleEpoch); errors.Is(gotErr, engine.ErrStaleEpoch) != stale {
				t.Errorf("%s: errors.Is(ErrStaleEpoch) http %v, local %v", step.name, !stale, stale)
			}
			if isTransport(gotErr) {
				t.Errorf("%s: refusal surfaced as a transport failure: %v", step.name, gotErr)
			}
		}
		// The singleton-envelope contract: a sequential caller's routed op
		// is exactly one frame of one op — and no HTTP request, but for the
		// upgrade that opens the stream the first of them meets none of —
		// and nothing else travels in frames.
		frames, posts := tap.Sent()
		frames, posts = frames[len(framesBefore):], posts[len(postsBefore):]
		if step.routed {
			if len(frames) != 1 || opsIn(frames[0]) != 1 {
				t.Errorf("%s: sent %d frames, want exactly one of one op", step.name, len(frames))
			}
			if len(posts) != 0 && !(len(framesBefore) == 0 && len(posts) == 1 && posts[0] == PathNodeOps) {
				t.Errorf("%s: sent HTTP requests %v beside its frame", step.name, posts)
			}
		} else if len(frames) != 0 || len(posts) != 1 {
			t.Errorf("%s: sent %d frames and requests %v, want one POST", step.name, len(frames), posts)
		}
	}
	if got := tap.Upgrades(); got != 1 {
		t.Errorf("the tape dialed %d streams, want 1", got)
	}
}

// TestRemovedNodeEndpoints pins the deletion: the per-op endpoints the
// envelope replaced are not routes any more.
func TestRemovedNodeEndpoints(t *testing.T) {
	ts := httptest.NewServer(NodeHandler(NewNode()))
	defer ts.Close()
	for _, path := range []string{
		"/v2/node/insert", "/v2/node/add-capacity", "/v2/node/remove",
		"/v2/node/assign-subtree", "/v2/node/consume",
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s answered %d, want 404", path, resp.StatusCode)
		}
	}
}
