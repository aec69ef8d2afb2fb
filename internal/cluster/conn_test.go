package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/wiretap"
)

// TestNodeConnParity drives one tape of every call a NodeConn has through
// its two implementations — LocalNode, the in-process reference, and the
// HTTP connection, whose eleven op kinds exist only as /v2/node/ops sub-ops
// in a stream's frames and whose init and prepare are the two POSTs — over
// nodes in the same state. Every step must return the same values — a mine
// the same WindowMine, nil lists and empty ones told apart — and, for a
// refusal, the same typed error: the same wire code and retryability once
// folded by nodeError, and the engine staleness sentinel on both sides of
// the wire.
func TestNodeConnParity(t *testing.T) {
	tree, next := buildTree(t, 7), buildTree(t, 8)
	ts := httptest.NewServer(NodeHandler(NewNode()))
	defer ts.Close()
	tap, hc := wiretap.New(t, platform.NewTransport())
	local, remote := LocalNode(NewNode()), DialNodeClient(ts.URL, hc)

	short := tree.CodeOf(0)[:1]
	mine := func(codes []hst.Code, epoch int64) func(c NodeConn) (string, error) {
		return func(c NodeConn) (string, error) {
			wm, err := c.Mine(codes, 3, epoch)
			if err != nil {
				return fmt.Sprint(wm), err
			}
			return fmt.Sprintf("%#v", *wm), nil
		}
	}
	worker := func(id, lvl int, found bool, err error) (string, error) { return fmt.Sprint(id, lvl, found), err }
	// wantErr is the wire code a step must be refused with ("" = success).
	steps := []struct {
		name    string
		wantErr string
		framed  bool // an op kind: one sub-op of one envelope in one frame; otherwise a document, one POST
		run     func(c NodeConn) (string, error)
	}{
		{"insert before init", platform.CodeConflict, true, func(c NodeConn) (string, error) {
			return "", c.Insert(tree.CodeOf(0), 1, 2, 0, "p-1")
		}},
		{"consume before init", platform.CodeConflict, true, func(c NodeConn) (string, error) {
			return "", c.Consume(tree.CodeOf(0), 1, 0, "p-2")
		}},
		{"mine before init", platform.CodeConflict, true, mine([]hst.Code{tree.CodeOf(0)}, 0)},
		{"pop-min before init", platform.CodeConflict, true, func(c NodeConn) (string, error) { return worker(c.PopMin(0, "p-2a")) }},
		{"commit before init", platform.CodeConflict, true, func(c NodeConn) (string, error) { return "", c.Commit(2, "p-2b") }},
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
		{"status", "", true, func(c NodeConn) (string, error) {
			st, err := c.Status(0)
			return fmt.Sprint(st.Epoch, st.Len, st.Units), err
		}},
		{"status stale epoch pin", platform.CodeStaleEpoch, true, func(c NodeConn) (string, error) {
			st, err := c.Status(99)
			return fmt.Sprint(st.Epoch, st.Len, st.Units), err
		}},
		{"min-id", "", true, func(c NodeConn) (string, error) {
			id, found, err := c.MinID(engine.FirstEpoch)
			return fmt.Sprint(id, found), err
		}},
		{"min-id stale epoch pin", platform.CodeStaleEpoch, true, func(c NodeConn) (string, error) {
			id, found, err := c.MinID(99)
			return fmt.Sprint(id, found), err
		}},
		{"mine a held leaf, an empty one and a malformed code", "", true, mine([]hst.Code{tree.CodeOf(5), tree.CodeOf(9), short}, engine.FirstEpoch)},
		{"mine sent no codes", "", true, mine(nil, 0)},
		{"mine stale epoch pin", platform.CodeStaleEpoch, true, mine([]hst.Code{tree.CodeOf(5)}, 99)},
		{"pop-min", "", true, func(c NodeConn) (string, error) { return worker(c.PopMin(engine.FirstEpoch, "p-19")) }},
		{"pop-min stale epoch pin", platform.CodeStaleEpoch, true, func(c NodeConn) (string, error) { return worker(c.PopMin(99, "p-20")) }},
		{"pop-min an empty pool", "", true, func(c NodeConn) (string, error) { return worker(c.PopMin(0, "p-21")) }},
		{"min-id an empty pool", "", true, func(c NodeConn) (string, error) {
			id, found, err := c.MinID(0)
			return fmt.Sprint(id, found), err
		}},
		{"mine an empty pool", "", true, mine([]hst.Code{tree.CodeOf(5), tree.CodeOf(0)}, 0)},
		{"commit nothing staged", platform.CodeBadRequest, true, func(c NodeConn) (string, error) { return "", c.Commit(2, "p-22") }},
		{"prepare", "", false, func(c NodeConn) (string, error) {
			inserts := []engine.EpochInsert{{Code: next.CodeOf(0), ID: 3, Cap: 2}, {Code: next.CodeOf(9), ID: 4}}
			return "", c.Prepare(2, next, 0, nextOf(inserts), "p-23")
		}},
		{"prepare the serving epoch", platform.CodeBadRequest, false, func(c NodeConn) (string, error) {
			return "", c.Prepare(engine.FirstEpoch, next, 0, nextOf(nil), "p-24")
		}},
		{"abort another epoch", "", true, func(c NodeConn) (string, error) { return "", c.Abort(3, "p-25") }},
		{"commit", "", true, func(c NodeConn) (string, error) { return "", c.Commit(2, "p-26") }},
		{"commit again", "", true, func(c NodeConn) (string, error) { return "", c.Commit(2, "p-27") }},
		{"prepare an empty partition", "", false, func(c NodeConn) (string, error) {
			return "", c.Prepare(3, tree, 0, nextOf(nil), "p-28")
		}},
		{"abort", "", true, func(c NodeConn) (string, error) { return "", c.Abort(3, "p-29") }},
		{"commit the aborted epoch", platform.CodeBadRequest, true, func(c NodeConn) (string, error) { return "", c.Commit(3, "p-30") }},
		{"status after the rotation", "", true, func(c NodeConn) (string, error) {
			st, err := c.Status(2)
			return fmt.Sprint(st.Epoch, st.Len, st.Units), err
		}},
		{"mine the new epoch", "", true, mine([]hst.Code{next.CodeOf(0)}, 2)},
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
		// The singleton-envelope contract: a sequential caller's op is
		// exactly one frame of one op — and no HTTP request, but for the
		// upgrade that opens the stream the first of them meets none of —
		// and a document is one POST and no frame.
		frames, posts := tap.Sent()
		frames, posts = frames[len(framesBefore):], posts[len(postsBefore):]
		if step.framed {
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

// TestRemovedNodeEndpoints pins the deletion: the per-call endpoints the
// envelope's kinds replaced are not routes any more.
func TestRemovedNodeEndpoints(t *testing.T) {
	ts := httptest.NewServer(NodeHandler(NewNode()))
	defer ts.Close()
	for _, path := range []string{
		"/v2/node/insert", "/v2/node/add-capacity", "/v2/node/remove",
		"/v2/node/assign-subtree", "/v2/node/consume",
		"/v2/node/status", PathNodeMinID, PathNodePopMin, "/v2/node/mine", PathNodeCommit, "/v2/node/rotate/abort",
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

// TestNodeEndpointRefusals: what the three endpoints refuse before any
// decoder runs — another method, and an envelope POSTed past the frame cap —
// is answered with the HTTP status and the typed error as its whole body,
// which is what the client folds a non-200 answer into.
func TestNodeEndpointRefusals(t *testing.T) {
	ts := httptest.NewServer(NodeHandler(NewNode()))
	defer ts.Close()
	refusal := func(resp *http.Response, err error) (int, platform.Error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pe platform.Error
		if err := json.NewDecoder(resp.Body).Decode(&pe); err != nil {
			t.Fatalf("%s answered %d with a body that is no error object: %v", resp.Request.URL.Path, resp.StatusCode, err)
		}
		return resp.StatusCode, pe
	}
	for _, path := range []string{PathNodeOps, PathNodeInit, PathNodePrepare} {
		status, pe := refusal(http.Get(ts.URL + path))
		if status != http.StatusMethodNotAllowed || pe.Code != platform.CodeMethodNotAllowed || !strings.Contains(pe.Message, path) {
			t.Errorf("GET %s answered %d %+v, want 405 %s naming the path", path, status, pe, platform.CodeMethodNotAllowed)
		}
	}
	long := `{"ops":[` + strings.Repeat(" ", maxFrame) + `]}`
	status, pe := refusal(http.Post(ts.URL+PathNodeOps, "application/json", strings.NewReader(long)))
	if status != http.StatusBadRequest || pe.Code != platform.CodeBadRequest {
		t.Errorf("an envelope of %d bytes POSTed answered %d %+v, want 400 %s", len(long), status, pe, platform.CodeBadRequest)
	}
	// The init document is read through the same refusal taxonomy on the
	// client's side: a 405 comes back typed, not as a transport failure.
	conn := newHTTPNode(ts.URL, ts.Client(), NodeTimeouts{})
	conn.reqs[PathNodeInit].Method = http.MethodPut
	err := conn.Init(InitRequest{Tree: buildTree(t, 7)})
	var typed *platform.Error
	if !errors.As(err, &typed) || typed.Code != platform.CodeMethodNotAllowed || isTransport(err) {
		t.Errorf("init refused with 405 surfaced as %v, want the typed %s", err, platform.CodeMethodNotAllowed)
	}
}
