package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
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
// nodes in the same state. Every step must answer the same OpResult — a
// mine the same lists, nil lists and empty ones told apart — and, for a
// refusal, the same typed error (sameRefusal).
func TestNodeConnParity(t *testing.T) {
	tree, next := buildTree(t, 7), buildTree(t, 8)
	ts := httptest.NewServer(NodeHandler(NewNode()))
	defer ts.Close()
	tap, hc := wiretap.New(t, platform.NewTransport())
	local, remote := LocalNode(NewNode()), DialNodeClient(ts.URL, hc)

	code := func(i int) []byte { return []byte(tree.CodeOf(i)) }
	short := code(0)[:1]
	mine := func(epoch int64, codes ...[]byte) OpRequest {
		return OpRequest{Kind: OpMine, Codes: codes, K: 3, Epoch: epoch}
	}
	// A step is an op — one sub-op of one envelope in one frame — or, when
	// doc is set, a document: one POST.
	steps := []struct {
		name    string
		wantErr string // the wire code it must be refused with ("" = success)
		op      OpRequest
		doc     func(c NodeConn) error
	}{
		{"insert before init", platform.CodeConflict, OpRequest{Kind: OpInsert, Idem: "p-1", Code: code(0), ID: 1, Capacity: 2}, nil},
		{"consume before init", platform.CodeConflict, OpRequest{Kind: OpConsume, Idem: "p-2", Code: code(0), ID: 1}, nil},
		{"mine before init", platform.CodeConflict, mine(0, code(0)), nil},
		{"pop-min before init", platform.CodeConflict, OpRequest{Kind: OpPopMin, Idem: "p-2a"}, nil},
		{"commit before init", platform.CodeConflict, OpRequest{Kind: OpCommit, Idem: "p-2b", Epoch: 2}, nil},
		{"init", "", OpRequest{}, func(c NodeConn) error {
			return c.Init(InitRequest{Tree: tree, Policy: "capacity-greedy", Idem: "p-3"})
		}},
		{"insert capacity 2", "", OpRequest{Kind: OpInsert, Idem: "p-4", Code: code(0), ID: 1, Capacity: 2, Epoch: engine.FirstEpoch}, nil},
		{"insert default capacity", "", OpRequest{Kind: OpInsert, Idem: "p-5", Code: code(5), ID: 2}, nil},
		{"insert stale epoch pin", platform.CodeStaleEpoch, OpRequest{Kind: OpInsert, Idem: "p-6", Code: code(1), ID: 3, Capacity: 1, Epoch: 99}, nil},
		{"insert malformed code", platform.CodeBadRequest, OpRequest{Kind: OpInsert, Idem: "p-7", Code: short, ID: 3, Capacity: 1}, nil},
		{"insert id outside int32", platform.CodeBadRequest, OpRequest{Kind: OpInsert, Idem: "p-8", Code: code(1), ID: 1 << 40, Capacity: 1}, nil},
		{"assign-subtree pops the nearest", "", OpRequest{Kind: OpAssignSubtree, Idem: "p-9", Code: code(0), Epoch: engine.FirstEpoch}, nil},
		{"assign-subtree stale epoch pin", platform.CodeStaleEpoch, OpRequest{Kind: OpAssignSubtree, Idem: "p-10", Code: code(0), Epoch: 99}, nil},
		{"assign-subtree malformed code", "", OpRequest{Kind: OpAssignSubtree, Idem: "p-11", Code: short}, nil},
		{"add-capacity returns the unit", "", OpRequest{Kind: OpAddCapacity, Idem: "p-12", Code: code(0), ID: 1, Epoch: engine.FirstEpoch}, nil},
		{"add-capacity stale epoch pin", platform.CodeStaleEpoch, OpRequest{Kind: OpAddCapacity, Idem: "p-13", Code: code(0), ID: 1, Epoch: 99}, nil},
		{"consume a pooled unit", "", OpRequest{Kind: OpConsume, Idem: "p-14", Code: code(0), ID: 1, Epoch: engine.FirstEpoch}, nil},
		{"consume an absent worker", platform.CodeBadRequest, OpRequest{Kind: OpConsume, Idem: "p-15", Code: code(0), ID: 77}, nil},
		{"consume malformed code", platform.CodeBadRequest, OpRequest{Kind: OpConsume, Idem: "p-16", Code: short, ID: 1}, nil},
		{"remove reports pooled units", "", OpRequest{Kind: OpRemove, Idem: "p-17", Code: code(0), ID: 1}, nil},
		{"remove an absent worker", "", OpRequest{Kind: OpRemove, Idem: "p-18", Code: code(0), ID: 1}, nil},
		{"status", "", OpRequest{Kind: OpStatus}, nil},
		{"status stale epoch pin", platform.CodeStaleEpoch, OpRequest{Kind: OpStatus, Epoch: 99}, nil},
		{"min-id", "", OpRequest{Kind: OpMinID, Epoch: engine.FirstEpoch}, nil},
		{"min-id stale epoch pin", platform.CodeStaleEpoch, OpRequest{Kind: OpMinID, Epoch: 99}, nil},
		{"mine a held leaf, an empty one and a malformed code", "", mine(engine.FirstEpoch, code(5), code(9), short), nil},
		{"mine sent no codes", "", mine(0), nil},
		{"mine stale epoch pin", platform.CodeStaleEpoch, mine(99, code(5)), nil},
		{"an unknown kind", platform.CodeBadRequest, OpRequest{Kind: "teleport", Idem: "p-18a", Code: code(5)}, nil},
		{"pop-min", "", OpRequest{Kind: OpPopMin, Idem: "p-19", Epoch: engine.FirstEpoch}, nil},
		{"pop-min stale epoch pin", platform.CodeStaleEpoch, OpRequest{Kind: OpPopMin, Idem: "p-20", Epoch: 99}, nil},
		{"pop-min an empty pool", "", OpRequest{Kind: OpPopMin, Idem: "p-21"}, nil},
		{"min-id an empty pool", "", OpRequest{Kind: OpMinID}, nil},
		{"mine an empty pool", "", mine(0, code(5), code(0)), nil},
		{"commit nothing staged", platform.CodeBadRequest, OpRequest{Kind: OpCommit, Idem: "p-22", Epoch: 2}, nil},
		{"prepare", "", OpRequest{}, func(c NodeConn) error {
			inserts := []engine.EpochInsert{{Code: next.CodeOf(0), ID: 3, Cap: 2}, {Code: next.CodeOf(9), ID: 4}}
			return c.Prepare(2, next, nextOf(inserts), "p-23")
		}},
		{"prepare the serving epoch", platform.CodeBadRequest, OpRequest{}, func(c NodeConn) error {
			return c.Prepare(engine.FirstEpoch, next, nextOf(nil), "p-24")
		}},
		{"abort another epoch", "", OpRequest{Kind: OpAbort, Idem: "p-25", Epoch: 3}, nil},
		{"commit", "", OpRequest{Kind: OpCommit, Idem: "p-26", Epoch: 2}, nil},
		{"commit again", "", OpRequest{Kind: OpCommit, Idem: "p-27", Epoch: 2}, nil},
		{"prepare an empty partition", "", OpRequest{}, func(c NodeConn) error {
			return c.Prepare(3, tree, nextOf(nil), "p-28")
		}},
		{"abort", "", OpRequest{Kind: OpAbort, Idem: "p-29", Epoch: 3}, nil},
		{"commit the aborted epoch", platform.CodeBadRequest, OpRequest{Kind: OpCommit, Idem: "p-30", Epoch: 3}, nil},
		{"status after the rotation", "", OpRequest{Kind: OpStatus, Epoch: 2}, nil},
		{"mine the new epoch", "", mine(2, []byte(next.CodeOf(0))), nil},
	}
	for _, step := range steps {
		framesBefore, postsBefore := tap.Sent()
		run := func(c NodeConn) (OpResult, error) {
			if step.doc != nil {
				return OpResult{}, step.doc(c)
			}
			return c.Do(step.op)
		}
		want, wantErr := run(local)
		got, gotErr := run(remote)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: http answered %+v, local %+v", step.name, got, want)
		}
		if (wantErr == nil) != (step.wantErr == "") {
			t.Fatalf("%s: local error %v, want code %q", step.name, wantErr, step.wantErr)
		}
		if !sameRefusal(t, step.name, wantErr, gotErr) {
			t.FailNow()
		}
		if wantErr != nil && nodeError(wantErr, 0).Code != step.wantErr {
			t.Errorf("%s: refused %v, want %s", step.name, wantErr, step.wantErr)
		}
		// The singleton-envelope contract: a sequential caller's op is
		// exactly one frame of one op — and no HTTP request, but for the
		// upgrade that opens the stream the first of them meets none of —
		// and a document is one POST and no frame.
		frames, posts := tap.Sent()
		frames, posts = frames[len(framesBefore):], posts[len(postsBefore):]
		if step.doc == nil {
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

// sameRefusal reports whether the HTTP connection's error got is the
// in-process reference's want, having said why not: both nil, or the same
// typed error once folded by nodeError — a stale refusal's message aside,
// which gains the engine sentinel's text on its way back over the wire —
// with the engine staleness sentinel on both sides of the wire, and never a
// transport failure.
func sameRefusal(t testing.TB, name string, want, got error) bool {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Errorf("%s: http error %v, local %v", name, got, want)
		return false
	}
	if want == nil {
		return true
	}
	w, g := *nodeError(want, 0), *nodeError(got, 0)
	if w.Code == platform.CodeStaleEpoch {
		w.Message = g.Message
	}
	ok := true
	if g != w {
		t.Errorf("%s: http refused %+v, local %+v", name, g, w)
		ok = false
	}
	if stale := errors.Is(want, engine.ErrStaleEpoch); errors.Is(got, engine.ErrStaleEpoch) != stale {
		t.Errorf("%s: errors.Is(ErrStaleEpoch) http %v, local %v", name, !stale, stale)
		ok = false
	}
	if isTransport(got) {
		t.Errorf("%s: refusal surfaced as a transport failure: %v", name, got)
		ok = false
	}
	return ok
}

// FuzzNodeConnParity is TestNodeConnParity over a tape the fuzzer writes:
// four bytes an op, run through LocalNode and through DialNodeClient over
// NodeHandler against nodes that start alike, every OpResult equal and every
// refusal the same (sameRefusal). A step's first byte picks the call — the
// eleven kinds, an unknown one, Init, or a Prepare of the next epoch over a
// small partition, which a commit pinned to that epoch then publishes — the
// second its code (a leaf of either tree, one cut short or run long, none),
// the third its id (past int32 in one case of four), and the fourth its
// epoch pin (0, the serving epoch, a stale one, the next) and its capacity
// or pool size. Every op carries a key of its own, as the coordinator's do.
func FuzzNodeConnParity(f *testing.F) {
	trees := [2]*hst.Tree{buildTree(f, 7), buildTree(f, 8)}
	// A step's call: opKinds[i] below len(opKinds), then these.
	const unknown, callInit, callPrepare, calls = uint8(len(opKinds)), uint8(len(opKinds) + 1), uint8(len(opKinds) + 2), uint8(len(opKinds) + 3)
	insert, addCapacity, remove, assign, status, minID, popMin, mine, commit, abort := uint8(0), uint8(1), uint8(2), uint8(3), uint8(5), uint8(6), uint8(7), uint8(8), uint8(9), uint8(10)
	for _, tape := range [][]byte{
		{insert, 0, 1, 0}, // before init
		{callInit, 0, 0, 0, insert, 0, 1, 4, assign, 0, 0, 1, status, 0, 0, 0, minID, 0, 0, 1},
		{callInit, 0, 0, 0, insert, 8, 2, 8, addCapacity, 8, 2, 2, insert, 0, 3, 4, remove, 8, 2, 0},
		{callInit, 0, 0, 0, insert, 0, 1, 4, mine, 0, 2, 13, popMin, 0, 0, 1, abort, 0, 0, 3, commit, 0, 0, 3},
		{callInit, 0, 0, 0, insert, 0, 1, 4, callPrepare, 0, 0, 3, commit, 0, 0, 3, status, 0, 0, 1, assign, 4, 0, 1, mine, 4, 1, 9},
		{callInit, 0, 0, 0, unknown, 0, 0, 0, insert, 1, 1, 4, mine, 0, 0, 0, mine, 2, 1, 8, 4, 3, 1, 1},
	} {
		f.Add(tape)
	}
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 4*64 {
			tape = tape[:4*64]
		}
		ts := httptest.NewServer(NodeHandler(NewNode()))
		defer ts.Close()
		tr := platform.NewTransport()
		defer tr.CloseIdleConnections()
		local, remote := LocalNode(NewNode()), DialNodeClient(ts.URL, &http.Client{Transport: tr})
		defer remote.Close()
		for i := 0; i+4 <= len(tape); i += 4 {
			call, c, id, pin := tape[i]%calls, int(tape[i+1]), int(tape[i+2]), int(tape[i+3])
			serving, _ := local.Do(OpRequest{Kind: OpStatus})
			cur := serving.Epoch // 0 before init
			tree := trees[c/4%2]
			var code []byte
			switch leaf := []byte(tree.CodeOf(c / 8 % tree.NumPoints())); c % 4 {
			case 0:
				code = leaf
			case 1:
				code = leaf[:c/8%len(leaf)]
			case 2:
				code = append(leaf, byte(c))
			}
			if id%4 == 3 {
				id += 1 << 40
			} else {
				id %= 8
			}
			stale := cur - 1
			if stale <= 0 {
				stale = cur + 99
			}
			epoch := [4]int64{0, cur, stale, cur + 1}[pin%4]
			idem := "f-" + strconv.Itoa(i)
			var want, got OpResult
			var wantErr, gotErr error
			switch call {
			case callInit:
				req := InitRequest{Tree: trees[0], Policy: "capacity-greedy", Idem: idem}
				wantErr, gotErr = local.Init(req), remote.Init(req)
			case callPrepare:
				staged := trees[cur%2]
				var inserts []engine.EpochInsert
				for w := range pin % 4 {
					inserts = append(inserts, engine.EpochInsert{Code: staged.CodeOf((c + w) % staged.NumPoints()), ID: 100 + w, Cap: 1 + w})
				}
				wantErr = local.Prepare(cur+1, staged, nextOf(inserts), idem)
				gotErr = remote.Prepare(cur+1, staged, nextOf(inserts), idem)
			default:
				op := OpRequest{Kind: "teleport", Idem: idem, Code: code, ID: id, Capacity: pin / 4 % 4, Epoch: epoch}
				if call < unknown {
					op.Kind = opKinds[call]
				}
				if op.Kind == OpMine {
					op.Codes, op.K = [][]byte{code, []byte(tree.CodeOf(id % tree.NumPoints()))}[:id%3], pin/4%5
				}
				want, wantErr = local.Do(op)
				got, gotErr = remote.Do(op)
			}
			name := fmt.Sprintf("step %d %v", i/4, tape[i:i+4])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: http answered %+v, local %+v", name, got, want)
			}
			if !sameRefusal(t, name, wantErr, gotErr) {
				t.FailNow()
			}
		}
	})
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
