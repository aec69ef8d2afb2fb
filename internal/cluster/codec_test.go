package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
)

// OpsRequest, OpsResponse and refResult are the envelope as encoding/json
// sees it — for the five routed kinds the structs the ops codec replaced —
// kept here as the reference its bytes and its reading are tested against.
type OpsRequest struct {
	Ops []OpRequest `json:"ops"`
}

type OpsResponse struct {
	OK      bool              `json:"ok"`
	Err     *platform.Error   `json:"error,omitempty"`
	Results []json.RawMessage `json:"results"`
}

// refResult is every sub-result shape in one struct: a shape is the members
// it sets, and found is written by the kinds that have one.
type refResult struct {
	OK    bool             `json:"ok"`
	Err   *platform.Error  `json:"error,omitempty"`
	ID    int              `json:"id,omitempty"`
	Level int              `json:"level,omitempty"`
	Epoch int64            `json:"epoch,omitempty"`
	Len   int              `json:"len,omitempty"`
	Units int              `json:"units,omitempty"`
	Found *bool            `json:"found,omitempty"`
	Pool  int              `json:"pool,omitempty"`
	Own   [][]refCandidate `json:"own,omitempty"`
	Pads  [][]refCandidate `json:"pads,omitempty"`
}

// refCandidate is hst.Candidate as the array [id,code,level,cap].
type refCandidate hst.Candidate

func (c refCandidate) MarshalJSON() ([]byte, error) {
	return json.Marshal([]any{c.ID, []byte(c.Code), c.Level, c.Cap})
}

func (c *refCandidate) UnmarshalJSON(b []byte) error {
	var code []byte
	parts := []any{&c.ID, &code, &c.Level, &c.Cap}
	if err := json.Unmarshal(b, &parts); err != nil {
		return err
	}
	if len(parts) != 4 {
		return fmt.Errorf("a candidate of %d elements", len(parts))
	}
	c.Code = hst.Code(code)
	return nil
}

func refLists(lists [][]hst.Candidate) [][]refCandidate {
	out := make([][]refCandidate, len(lists))
	for i, list := range lists {
		out[i] = make([]refCandidate, len(list)) // an empty list is [], never null
		for j, c := range list {
			out[i][j] = refCandidate(c)
		}
	}
	return out
}

// result is r as the scanner leaves an opResult: no found is false, an
// empty list — of lists, of candidates — is nil.
func (r refResult) result() opResult {
	lists := func(ref [][]refCandidate) (out [][]hst.Candidate) {
		for _, list := range ref {
			var cs []hst.Candidate
			for _, c := range list {
				cs = append(cs, hst.Candidate(c))
			}
			out = append(out, cs)
		}
		return out
	}
	return opResult{
		OK: r.OK, Err: r.Err, ID: r.ID, Level: r.Level, Units: r.Units, Found: r.Found != nil && *r.Found,
		Epoch: r.Epoch, Len: r.Len, Pool: r.Pool, Own: lists(r.Own), Pads: lists(r.Pads),
	}
}

func batchOf(ops ...OpRequest) []*batchedOp {
	batch := make([]*batchedOp, len(ops))
	for i, op := range ops {
		batch[i] = &batchedOp{op: op}
	}
	return batch
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkRequestScan: whatever scanOps accepts, encoding/json decodes to the
// same ops.
func checkRequestScan(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	ops, err := scanOps(body, nil)
	if err != nil {
		return false
	}
	var ref OpsRequest
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatalf("scanOps accepted %q, encoding/json refuses it: %v", body, err)
	}
	if len(ops) != len(ref.Ops) {
		t.Fatalf("scanOps read %d ops of %q, encoding/json %d", len(ops), body, len(ref.Ops))
	}
	for i, op := range ops {
		want := ref.Ops[i]
		// json leaves an absent code nil and an empty one empty; to the node
		// both are the empty code, and no codes no codes.
		if !bytes.Equal(op.Code, want.Code) || !slices.EqualFunc(op.Codes, want.Codes, bytes.Equal) {
			t.Fatalf("op %d of %q: code %x and codes %x, encoding/json %x and %x", i, body, op.Code, op.Codes, want.Code, want.Codes)
		}
		op.Code, want.Code, op.Codes, want.Codes = nil, nil, nil, nil
		if !reflect.DeepEqual(op, want) {
			t.Fatalf("op %d of %q: scanned %+v, encoding/json %+v", i, body, op, want)
		}
	}
	return true
}

// checkResponseScan: whatever scanOpsResponse accepts, encoding/json
// decodes to the same refusal and the same sub-results.
func checkResponseScan(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	var ref OpsResponse
	refErr := json.Unmarshal(body, &ref)
	n := len(ref.Results)
	if refErr != nil {
		n = 1
	}
	batch := batchOf(make([]OpRequest, n)...)
	refusal, err := scanOpsResponse(body, batch)
	if err != nil {
		return false
	}
	if refErr != nil {
		t.Fatalf("scanOpsResponse accepted %q, encoding/json refuses it: %v", body, refErr)
	}
	if !reflect.DeepEqual(refusal, ref.Err) {
		t.Fatalf("refusal of %q: scanned %+v, encoding/json %+v", body, refusal, ref.Err)
	}
	for i, bo := range batch {
		var want refResult
		if err := json.Unmarshal(ref.Results[i], &want); err != nil {
			t.Fatalf("scanOpsResponse accepted result %d of %q, encoding/json refuses it: %v", i, body, err)
		}
		if !reflect.DeepEqual(bo.res, want.result()) {
			t.Fatalf("result %d of %q: scanned %+v, encoding/json %+v", i, body, bo.res, want.result())
		}
	}
	return true
}

// FuzzOpsCodec is the codec's differential against encoding/json, both
// ways: the scanners accept only what encoding/json decodes to the same
// values, and the encoders write, for arbitrary ops and results, the bytes
// json.Encoder.Encode and json.Marshal write for the reference structs.
func FuzzOpsCodec(f *testing.F) {
	const minInt64, maxInt64 = "-9223372036854775808", "9223372036854775807"
	for _, body := range []string{
		`{"ops":[]}`,
		`{}`,
		` { "ops" : [ { "kind" : "insert" , "idem" : "k" , "code" : "AAEC" , "id" : 5 , "capacity" : 2 , "epoch" : 1 } ] } ` + "\n",
		`{"ops":[{"epoch":1,"id":5,"code":"AAEC","idem":"k","kind":"remove"},{"kind":"consume"}]}`,
		`{"ops":[{"kind":"insert","idem":"a\"b\\c<d\ud83d\ude00","code":"AAEC"}]}`,
		"{\"ops\":[{\"kind\":\"insert\",\"idem\":\"bad-utf8-\xff-\xc3\"}]}",
		`{"ops":[{"kind":"insert","code":"AA\r\nEC"}]}`,
		`{"ops":[{"kind":"insert","id":` + maxInt64 + `,"epoch":` + minInt64 + `},{"kind":"insert","id":-0}]}`,
		`{"ops":[{"kind":"insert","id":9223372036854775808}]}`,
		`{"ops":[{"kind":"insert","epoch":-9223372036854775809}]}`,
		`{"ops":[{"kind":"insert","id":92233720368547758070}]}`,
		`{"ops":[{"kind":"insert","id":1.0},{"kind":"insert","id":1e2},{"kind":"insert","id":01}]}`,
		`{"ops":[{"kind":"insert","id":5,"id":6}]}`,
		`{"ops":[{"kind":"insert","Kind":"remove"}]}`,
		`{"ops":[{"kind":null}],"ops":null}`,
		`{"ops":[{"kind":"insert"},]}`,
		`{"ops":[{"id"0}]}`,
		`{"ops" [{"id":0}]}`,
		`{"ops":[{"kind":"insert"}]}{}`,
		`{"ok":true,"results":[{"ok":true},{"ok":false,"error":{"code":"stale_epoch","message":"m","epoch":2,"retryable":true}},` +
			`{"ok":true,"units":3,"found":true},{"ok":true,"id":-1,"found":false},{"ok":true,"id":7,"level":2,"found":true}]}` + "\n",
		`{"ok":false,"error":{"code":"bad_request","message":"cluster: bad request: <\"x\">"},"results":null}` + "\n",
		` { "results" : [ { "found" : true , "ok" : true } ] , "ok" : true } `,
		`{"ok":true,"results":[{"ok":true,"error":null}]}`,
		`{"ok":true,"results":[{"ok":true,"extra":1}]}`,
		`{"ok":true,"results":[{"ok":true}],"results":[]}`,
		`{"ok":true,"results":[{"ok":true,"id":` + maxInt64 + `0}]}`,
		// A seed a new kind, both directions, then what the scanner refuses
		// of their members as of the five's.
		`{"ops":[{"kind":"status"},{"kind":"status","epoch":3},{"kind":"min-id","epoch":1},{"kind":"pop-min","idem":"k","epoch":1}]}`,
		`{"ops":[{"kind":"commit","idem":"k","epoch":2},{"kind":"abort","idem":"k","epoch":2}]}`,
		`{"ops":[{"kind":"mine","codes":["AAEC","","AQ=="],"k":8,"epoch":1},{"kind":"mine","codes":[],"k":1},{"kind":"mine","k":-3}]}`,
		` { "ops" : [ { "k" : 2 , "codes" : [ "AAEC" , "AQ==" ] , "kind" : "mine" } ] } `,
		`{"ops":[{"kind":"mine","codes":null}]}`,
		`{"ops":[{"kind":"mine","codes":[null]}]}`,
		`{"ops":[{"kind":"mine","codes":["AAEC"],"codes":[]}]}`,
		`{"ops":[{"kind":"mine","codes":["AAE"]}]}`,
		`{"ops":[{"kind":"mine","codes":["AAEC",]}]}`,
		`{"ops":[{"kind":"mine","k":1.5},{"kind":"mine","K":1}]}`,
		`{"ok":true,"results":[{"ok":true,"epoch":2,"len":7,"units":9},{"ok":true,"epoch":1},{"ok":true,"id":3,"found":true},{"ok":true,"found":false}]}`,
		`{"ok":true,"results":[{"ok":true,"epoch":1,"pool":5,"own":[[[7,"AAEC",2,1],[9,"AAED",0,3]],[]],"pads":[[],[[7,"AAEC",5,1]]]}]}`,
		` { "results" : [ { "pads" : [ [ [ 7 , "AAEC" , 5 , 1 ] ] ] , "own" : [ ] , "ok" : true } ] } `,
		`{"ok":true,"results":[{"ok":true,"own":null}]}`,
		`{"ok":true,"results":[{"ok":true,"own":[null]}]}`,
		`{"ok":true,"results":[{"ok":true,"own":[[null]]}]}`,
		`{"ok":true,"results":[{"ok":true,"own":[[[7,"AAEC",2]]]}]}`,
		`{"ok":true,"results":[{"ok":true,"own":[[[7,"AAEC",2,1,0]]]}]}`,
		`{"ok":true,"results":[{"ok":true,"own":[[[7,"AAE",2,1]]]}]}`,
		`{"ok":true,"results":[{"ok":true,"own":[[["7","AAEC",2,1]]]}]}`,
		`{"ok":true,"results":[{"ok":true,"own":[[[7,"AAEC",2.0,1]]]}]}`,
		`{"ok":true,"results":[{"ok":true,"pads":[],"pads":[]}]}`,
		`{"ok":true,"results":[{"ok":true,"Pool":1}]}`,
	} {
		f.Add([]byte(body), "insert", "idem", []byte{0, 1, 2}, 5, 2, int64(1), true)
	}
	f.Add([]byte(nil), "a\"b\\c<d>&e\x7f\u2028\u2029\xff\x00\n", "\t\b\f\r\x1f \u00e9 \xf0\x9f", []byte{}, math.MaxInt, math.MinInt, int64(math.MinInt64), false)
	f.Add([]byte(nil), "", "", []byte(nil), 0, 0, int64(0), false)
	f.Add([]byte(nil), OpAssignSubtree, "AbCdEf1z", bytes.Repeat([]byte{255}, 7), -1, 0, int64(math.MaxInt64), true)

	f.Fuzz(func(t *testing.T, body []byte, kind, idem string, code []byte, id, level int, epoch int64, found bool) {
		checkRequestScan(t, body)
		checkResponseScan(t, body)

		// Request encoder ≡ json.Encoder, and what it writes scans back.
		// encoding/json writes a nil code inside codes as null; the codec has
		// no null, and no caller a nil code.
		some := append([]byte{}, code...)
		ops := []OpRequest{
			{Kind: kind, Idem: idem, Code: code, ID: id, Capacity: level, Epoch: epoch},
			{Kind: idem, Code: code, Epoch: int64(id)},
			{Kind: kind, Idem: kind, ID: level},
			{Kind: OpMine, Codes: [][]byte{some, {}, some}, K: level, Epoch: epoch},
			{Kind: kind, Idem: idem, Codes: [][]byte{some}, K: id},
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(OpsRequest{Ops: ops}); err != nil {
			t.Fatal(err)
		}
		got := appendOpsRequest(nil, batchOf(ops...))
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("request envelope\n got %q\nwant %q", got, want.Bytes())
		}
		if !checkRequestScan(t, got) {
			t.Fatalf("scanOps refuses the encoder's own envelope %q", got)
		}

		// Result encoders ≡ json.Marshal of the struct each shape had, for
		// successes and for refusals of every error shape.
		refused := &platform.Error{Code: kind, Message: idem, Epoch: epoch, Retryable: found}
		ack, _ := appendAck(nil, nil, 0)
		nack, _ := appendAck(nil, refused, 0)
		assigned, _ := appendAssigned(nil, id, level, found, nil, 0)
		unassigned, _ := appendAssigned(nil, id, level, found, refused, 0)
		no := false
		cands := []hst.Candidate{{ID: id, Code: hst.Code(code), Level: level, Cap: id}, {ID: level, Code: hst.Code(idem)}}
		mined := &engine.WindowMine{Epoch: epoch, Pool: level, Own: [][]hst.Candidate{cands, nil, cands[:1]}, Pads: [][]hst.Candidate{nil}}
		results := []struct {
			got  []byte
			want refResult
		}{
			{ack, refResult{OK: true}},
			{nack, refResult{Err: refused}},
			{appendRemoved(nil, level, found), refResult{OK: true, Units: level, Found: &found}},
			{appendFound(appendRefusal(nil, refused), false), refResult{Err: refused, Found: &no}},
			{assigned, refResult{OK: true, ID: id, Level: level, Found: &found}},
			{unassigned, refResult{Err: refused, Found: &no}},
			{appendStatus(nil, StatusResponse{Epoch: epoch, Len: id, Units: level}), refResult{OK: true, Epoch: epoch, Len: id, Units: level}},
			{appendMined(nil, mined), refResult{OK: true, Epoch: epoch, Pool: level, Own: refLists(mined.Own), Pads: refLists(mined.Pads)}},
			{appendMined(nil, &engine.WindowMine{Own: [][]hst.Candidate{}}), refResult{OK: true}},
		}
		env := []byte(`{"ok":true,"results":[`)
		for i, r := range results {
			if want := marshal(t, r.want); !bytes.Equal(r.got, want) {
				t.Fatalf("result %d\n got %q\nwant %q", i, r.got, want)
			}
			if i > 0 {
				env = append(env, ',')
			}
			env = append(env, r.got...)
		}
		if env = append(env, "]}\n"...); !checkResponseScan(t, env) {
			t.Fatalf("scanOpsResponse refuses the encoders' own envelope %q", env)
		}
		// The refused envelope, as the ops handler writes it.
		env = append(appendRefusal(nil, refused), `,"results":null}`...)
		if want := marshal(t, OpsResponse{Err: refused}); !bytes.Equal(env, want) {
			t.Fatalf("refused envelope\n got %q\nwant %q", env, want)
		}
		if !checkResponseScan(t, env) {
			t.Fatalf("scanOpsResponse refuses the refused envelope %q", env)
		}
	})
}

// TestOpsEnvelopeGrammar pins what the node-side scanner takes and what it
// refuses — protocol.go's list, case by case — and that a refusal is
// answered as the bad_request envelope with nothing applied.
func TestOpsEnvelopeGrammar(t *testing.T) {
	for _, tc := range []struct {
		body   string
		refuse string // "" = accepted; else a fragment of the refusal
	}{
		{`{"ops":[]}`, ""},
		{`{}`, ""},
		{" {\t\"ops\" :\r\n[ { \"id\" : 7 , \"kind\" : \"remove\" } ] } \n", ""},
		{`{"ops":[{"kind":"remove","id":7}]}`, ""},
		{`{"ops":[{"kind":"remove","id":-0}]}`, ""},
		{`{"ops":[{"\u006bind":"r\u0065move","idem":"\"\\\u00e9"}]}`, ""},
		{`{"ops":[{"kind":"remove"}],"extra":1}`, `unknown field "extra"`},
		{`{"ops":[{"kind":"remove","extra":1}]}`, `unknown field "extra"`},
		{`{"ops":[{"Kind":"remove"}]}`, `unknown field "Kind"`},
		{`{"ops":[{"kind":"remove","id":1,"id":2}]}`, `duplicate field "id"`},
		{`{"ops":[],"ops":[]}`, `duplicate field "ops"`},
		{`{"ops":null}`, `expected '['`},
		{`{"ops":[null]}`, `expected '{'`},
		{`{"ops":[{"kind":null}]}`, "expected a string"},
		{`{"ops":[{"kind":"remove","id":null}]}`, "expected an integer"},
		{`{"ops":[{"kind":"remove","id":1.0}]}`, "not an integer literal"},
		{`{"ops":[{"kind":"remove","id":1e2}]}`, "not an integer literal"},
		{`{"ops":[{"kind":"remove","id":01}]}`, "leading zero"},
		{`{"ops":[{"kind":"remove","id":9223372036854775808}]}`, "out of range"},
		{`{"ops":[{"kind":"remove","code":"AAE"}]}`, "code: illegal base64"},
		{`{"ops":[{"kind":"remove","idem":"a` + "\n" + `b"}]}`, "control character"},
		{`{"ops":[{"kind":"remove","idem":"\x"}]}`, "string: invalid character"},
		{`{"ops":[{"kind":"remove"},]}`, `expected '{'`},
		{`{"ops":[{"id"0}]}`, `expected ':'`},
		{`{"ops" []}`, `expected ':'`},
		{`{"ops":[{"id":0 "kind":"remove"}]}`, `expected ','`},
		{`{"ops":[{"kind":"remove"}]} {}`, "data after the envelope"},
		// The six kinds that were POSTs of their own, and what they added to
		// an op: codes and k.
		{`{"ops":[{"kind":"status"},{"kind":"status","epoch":2},{"kind":"min-id","epoch":1}]}`, ""},
		{`{"ops":[{"kind":"pop-min","idem":"p","epoch":1},{"kind":"commit","idem":"c","epoch":2},{"kind":"abort","idem":"a","epoch":2}]}`, ""},
		{`{"ops":[{"kind":"mine","codes":["AAEC","","AQ=="],"k":8,"epoch":1}]}`, ""},
		{" {\"ops\":[ { \"k\" : 8 , \"codes\" : [ \"AAEC\" , \"AQ==\" ] , \"kind\" : \"mine\" } ] }", ""},
		{`{"ops":[{"kind":"mine","codes":[]},{"kind":"mine"}]}`, ""},
		{`{"ops":[{"kind":"mine","codes":null}]}`, `expected '['`},
		{`{"ops":[{"kind":"mine","codes":[null]}]}`, "expected a string"},
		{`{"ops":[{"kind":"mine","codes":["AAEC",]}]}`, "expected a string"},
		{`{"ops":[{"kind":"mine","codes":["AAE"]}]}`, "code: illegal base64"},
		{`{"ops":[{"kind":"mine","codes":[],"codes":[]}]}`, `duplicate field "codes"`},
		{`{"ops":[{"kind":"mine","k":null}]}`, "expected an integer"},
		{`{"ops":[{"kind":"mine","k":1.5}]}`, "not an integer literal"},
		{`{"ops":[{"kind":"mine","k":1,"k":2}]}`, `duplicate field "k"`},
		{`{"ops":[{"kind":"mine","K":1}]}`, `unknown field "K"`},
		{`{"ops":[{"kind":"status","len":1}]}`, `unknown field "len"`},
		{`[{"kind":"remove"}]`, `expected '{'`},
		{``, `expected '{'`},
	} {
		ops, err := scanOps([]byte(tc.body), nil)
		switch {
		case tc.refuse == "" && err != nil:
			t.Errorf("%q refused: %v", tc.body, err)
		case tc.refuse != "" && err == nil:
			t.Errorf("%q accepted as %+v, want a refusal naming %q", tc.body, ops, tc.refuse)
		case tc.refuse != "" && !strings.Contains(err.Error(), tc.refuse):
			t.Errorf("%q refused with %q, want it to name %q", tc.body, err, tc.refuse)
		}
		checkRequestScan(t, []byte(tc.body))
	}

	// Through the handler: a refused envelope applies none of its ops, the
	// well-formed ones before the fault included.
	tree := buildTree(t, 7)
	node := NewNode()
	if err := node.Init(InitRequest{Tree: tree}); err != nil {
		t.Fatal(err)
	}
	code := string(marshal(t, []byte(tree.CodeOf(0))))
	body := `{"ops":[{"kind":"insert","idem":"g-1","code":` + code + `,"id":1},{"kind":"insert","code":` + code + `,"id":2,"extra":0}]}`
	rec := postRecorded(NodeHandler(node), PathNodeOps, body)
	want := string(marshal(t, OpsResponse{Err: badBody(errOf(scanOps([]byte(body), nil)))})) + "\n"
	if rec != want {
		t.Fatalf("refused envelope answered\n%s\nwant\n%s", rec, want)
	}
	if st, err := node.Status(0); err != nil || st.Len != 0 {
		t.Fatalf("refused envelope applied ops: %+v, %v", st, err)
	}
}

func errOf(_ []OpRequest, err error) error { return err }

// postRecorded POSTs body to a handler in-process and returns the answer's
// bytes.
func postRecorded(h http.Handler, path, body string) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Body.String()
}

// TestOpsCodecAllocs pins the codec's allocations: encoding a request and
// scanning a successful answer cost none, decoding a request costs what the
// node must keep of it — each op's idem and code — and the replay cache
// copies an entry once, the bare ack never.
func TestOpsCodecAllocs(t *testing.T) {
	code := []byte{0, 1, 2, 3, 4, 5, 6}
	batch := batchOf(
		OpRequest{Kind: OpInsert, Idem: "AbCdEf1", Code: code, ID: 12345, Capacity: 2, Epoch: 1},
		OpRequest{Kind: OpRemove, Idem: "AbCdEf2", Code: code, ID: 12345},
		OpRequest{Kind: OpAssignSubtree, Idem: "AbCdEf3", Code: code, Epoch: 1},
		OpRequest{Kind: OpMinID, Epoch: 1},
		OpRequest{Kind: OpPopMin, Idem: "AbCdEf4", Epoch: 1},
		OpRequest{Kind: OpStatus},
		OpRequest{Kind: OpCommit, Idem: "AbCdEf5", Epoch: 2},
	)
	req := appendOpsRequest(nil, batch)
	if n := testing.AllocsPerRun(100, func() { req = appendOpsRequest(req[:0], batch) }); n != 0 {
		t.Errorf("request encode: %v allocs, want 0", n)
	}

	ops := make([]OpRequest, 0, len(batch))
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if ops, err = scanOps(req, ops[:0]); err != nil {
			t.Fatal(err)
		}
	}); n > float64(2*len(batch)) {
		t.Errorf("request decode: %v allocs for %d ops, want ≤ 2 per op", n, len(batch))
	}

	resp := []byte(`{"ok":true,"results":[{"ok":true},{"ok":true,"units":2,"found":true},{"ok":true,"id":12345,"level":3,"found":true},` +
		`{"ok":true,"id":7,"found":true},{"ok":true,"id":7,"level":4,"found":true},{"ok":true,"epoch":1,"len":9,"units":11},{"ok":true}]}` + "\n")
	if n := testing.AllocsPerRun(100, func() {
		if refusal, err := scanOpsResponse(resp, batch); refusal != nil || err != nil {
			t.Fatal(refusal, err)
		}
	}); n != 0 {
		t.Errorf("result scan: %v allocs, want 0", n)
	}
	for i, want := range []opResult{
		{OK: true}, {OK: true, Units: 2, Found: true}, {OK: true, ID: 12345, Level: 3, Found: true},
		{OK: true, ID: 7, Found: true}, {OK: true, ID: 7, Level: 4, Found: true},
		{OK: true, Epoch: 1, Len: 9, Units: 11}, {OK: true},
	} {
		if got := batch[i].res; !reflect.DeepEqual(got, want) {
			t.Errorf("result %d scanned %+v, want %+v", i, got, want)
		}
	}

	// Overwriting live keys, so the map itself does not grow.
	cache := newReplayCache()
	cache.put("ack", ackOK)
	cache.put("pop", resp)
	scratch := append([]byte(nil), ackOK...)
	if n := testing.AllocsPerRun(100, func() { cache.put("ack", scratch) }); n != 0 {
		t.Errorf("caching the bare ack: %v allocs, want 0 (one shared slice)", n)
	}
	if n := testing.AllocsPerRun(100, func() { cache.put("pop", resp) }); n != 1 {
		t.Errorf("caching a result: %v allocs, want its one copy", n)
	}
	if got, _ := cache.get("ack"); &got[0] != &ackOK[0] {
		t.Error("the cached ack is a copy, want the shared slice")
	}
}

// TestOpsResponseShape pins the envelope-level outcomes of reading an
// answer: a refused envelope is the refusal, not an error; anything but one
// result per op is an error (sendOps makes it a transport failure), as is
// an answer that does not scan.
func TestOpsResponseShape(t *testing.T) {
	for _, tc := range []struct {
		body    string
		ops     int
		refused string // the refusal's code, "" for none
		bad     bool
	}{
		{`{"ok":true,"results":[{"ok":true},{"ok":true,"found":false}]}` + "\n", 2, "", false},
		{`{"ok":true,"results":[]}`, 0, "", false},
		{`{"ok":false,"error":{"code":"bad_request","message":"m"},"results":null}`, 2, "bad_request", false},
		{`{"ok":true,"results":[{"ok":true}]}`, 2, "", true},
		{`{"ok":true,"results":[{"ok":true},{"ok":true}]}`, 1, "", true},
		{`{"ok":true,"results":null}`, 1, "", true},
		{`{"ok":true}`, 1, "", true},
		{`{"ok":true,"results":[{"ok":true}]`, 1, "", true},
		{`{"ok":true,"results":[{"ok" true}]}`, 1, "", true},
		{`{"ok":false,"error":{"code" "x"},"results":null}`, 1, "", true},
		{`<html>502</html>`, 1, "", true},
		{``, 1, "", true},
	} {
		refusal, err := scanOpsResponse([]byte(tc.body), batchOf(make([]OpRequest, tc.ops)...))
		switch {
		case (err != nil) != tc.bad:
			t.Errorf("%q for %d ops: err %v, want an error: %v", tc.body, tc.ops, err, tc.bad)
		case tc.refused == "" && refusal != nil, tc.refused != "" && (refusal == nil || refusal.Code != tc.refused):
			t.Errorf("%q: refusal %+v, want code %q", tc.body, refusal, tc.refused)
		}
	}
}
