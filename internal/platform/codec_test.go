package platform

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/wire"
)

// agentTypes makes a zero value of each type the agent codec covers.
var agentTypes = []func() canonical{
	func() canonical { return new(RegisterRequest) },
	func() canonical { return new(ReregisterRequest) },
	func() canonical { return new(ReleaseRequest) },
	func() canonical { return new(WithdrawRequest) },
	func() canonical { return new(TaskRequest) },
	func() canonical { return new(TaskBatchRequest) },
	func() canonical { return new(RegisterResponse) },
	func() canonical { return new(TaskResponse) },
	func() canonical { return new(TaskBatchResponse) },
	func() canonical { return new(wirePublication) },
}

// checkAgentScan holds each scanner to encoding/json on doc: whatever a
// scanner accepts, json.Unmarshal decodes to the same value, and decodeJSON
// — the scanner, else the fallback — leaves the value and the error
// Buf.UnmarshalFrom leaves. It reports how many scanners accepted doc.
func checkAgentScan(t *testing.T, doc []byte) (accepted int) {
	t.Helper()
	for _, zero := range agentTypes {
		scanned, ref := zero(), zero()
		if scanned.scanJSON(doc) == nil {
			accepted++
			if err := json.Unmarshal(doc, ref); err != nil {
				t.Fatalf("%T scanned %q, encoding/json refuses it: %v", scanned, doc, err)
			}
			if !reflect.DeepEqual(scanned, ref) {
				t.Fatalf("%T of %q: scanned %+v, encoding/json %+v", scanned, doc, scanned, ref)
			}
		}
		decoded, viaJSON := zero(), zero()
		a, b := wire.Get(), wire.Get()
		errA, errB := decodeJSON(a, doc, decoded), b.UnmarshalFrom(doc, viaJSON)
		wire.Put(a)
		wire.Put(b)
		if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) || !reflect.DeepEqual(decoded, viaJSON) {
			t.Fatalf("%T of %q: decodeJSON left %+v (%v), UnmarshalFrom %+v (%v)", decoded, doc, decoded, errA, viaJSON, errB)
		}
	}
	return accepted
}

// FuzzAgentCodec is the agent codec's differential against encoding/json,
// both ways: the scanners read only what encoding/json decodes to the same
// value, and for arbitrary values of the ten types the encoders write the
// bytes json.Marshal writes, which the scanners read back.
func FuzzAgentCodec(f *testing.F) {
	tree := newTestServer(f).Publication().Tree
	pubDoc := (&wirePublication{Tree: tree, MaxX: 200, MaxY: 200, Cols: 8, Rows: 8, Epsilon: 0.6, Epoch: 1}).appendJSON(nil)
	for _, doc := range []string{
		`{"worker_id":"w1","code":"AAECAw==","epoch":2,"capacity":3}` + "\n",
		` { "capacity" : 3 , "epoch" : 2 , "code" : "AAECAw==" , "worker_id" : "w1" } `,
		`{"task_id":"t","code":"AAEC"}`,
		`{"task_id":"té\"<>","code":"AA\r\nEC","epoch":-0}`,
		"{\"task_id\":\"bad-utf8-\xff\",\"code\":\"\"}",
		`{"worker_id":"w","code":null,"epoch":null}`,
		`{"worker_id":"w"}`,
		`{}`,
		`{"tasks":[{"task_id":"a","code":"AAEC"},{"code":"AQ==","epoch":7}]}`,
		`{"tasks":[]}`,
		`{"tasks":null}`,
		`{"tasks":[null]}`,
		`{"ok":true,"epoch":1}` + "\n",
		`{"ok":false,"reason":"platform: worker parked","error":{"code":"parked","message":"m","epoch":3,"retryable":true},"parked":true}`,
		`{"assigned":true,"worker_id":"w7","epoch":1}`,
		`{"assigned":false,"reason":"r","error":{"code":"no_workers","retryable":true}}`,
		`{"results":[{"assigned":true,"worker_id":"w1"},{"assigned":false,"error":{"code":"bad_request"}}]}`,
		`{"results":null}`,
		string(pubDoc),
		`{"epsilon":0.6,"tree":null,"cols":8,"min_x":1e2,"max_y":-0.5e-3,"epoch":3}`,
		// What falls back to encoding/json: case-folded, unknown and repeated
		// keys, numbers that are not integer literals, nulls where the
		// encoders write none, trailing data, malformed documents.
		`{"Worker_ID":"w","CODE":"AAEC"}`,
		`{"worker_id":"w","extra":[1,{"a":null}]}`,
		`{"worker_id":"a","worker_id":"b"}`,
		`{"worker_id":"w","epoch":1.0,"capacity":1e2}`,
		`{"worker_id":"w","epoch":9223372036854775808}`,
		`{"worker_id":"w","capacity":01}`,
		`{"ok":true,"error":null}`,
		`{"assigned":true,"error":{"code":"x","message":null}}`,
		`{"worker_id":"w"} {"worker_id":"v"}`,
		`{"worker_id":"w"} x`,
		`{"worker_id":"w","code":"AAE"}`,
		`{"worker_id":"w","code":[0,1,2]}`,
		`{"Tree":{},"Epsilon":1}`,
		`{"epsilon":1e400}`,
		`{"epsilon":.5,"cols":1.0}`,
		strings.Replace(string(pubDoc), `"depth":`, `"depth":1,"depth":`, 1),
		`{"worker_id":"w",}`,
		`{"worker_id" "w"}`,
		`["w"]`,
		`null`,
		``,
	} {
		f.Add([]byte(doc), "w\"<&> \xff", []byte{0, 1, 2}, int64(1), 2, true)
	}
	f.Add([]byte(nil), "", []byte(nil), int64(math.MinInt64), math.MaxInt, false)
	f.Add([]byte(nil), "\x00\t\né", []byte{}, int64(math.MaxInt64), math.MinInt, true)

	f.Fuzz(func(t *testing.T, doc []byte, id string, code []byte, epoch int64, n int, flag bool) {
		checkAgentScan(t, doc)

		refusal := &Error{Code: id, Message: id + id, Epoch: epoch, Retryable: flag}
		task := TaskRequest{TaskID: id, Code: code, Epoch: epoch}
		answer := TaskResponse{Assigned: flag, WorkerID: id, Reason: id, Err: refusal, Epoch: epoch}
		for _, v := range []canonical{
			&RegisterRequest{WorkerID: id, Code: code, Epoch: epoch, Capacity: n},
			&ReregisterRequest{WorkerID: id, Code: code, Epoch: epoch},
			&ReleaseRequest{WorkerID: id, Code: code, Epoch: epoch},
			&WithdrawRequest{WorkerID: id},
			&task,
			&TaskBatchRequest{Tasks: []TaskRequest{task, {}, task}},
			&TaskBatchRequest{Tasks: []TaskRequest{}},
			&TaskBatchRequest{},
			&RegisterResponse{OK: flag, Reason: id, Err: refusal, Parked: !flag, Epoch: epoch},
			&RegisterResponse{OK: flag},
			&answer,
			&TaskResponse{},
			&TaskBatchResponse{Results: []TaskResponse{answer, {}, {Assigned: true, WorkerID: id}}},
			&TaskBatchResponse{},
			&wirePublication{Tree: tree, MinX: float64(epoch), MinY: -1e-7 * float64(n), MaxX: 1e21, MaxY: float64(n) / 3, Cols: n, Rows: -n, Epsilon: 0.6, Epoch: epoch},
			&wirePublication{},
		} {
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			got := v.appendJSON(nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("%T %+v\n got %q\nwant %q", v, v, got, want)
			}
			back, ref := reflect.New(reflect.TypeOf(v).Elem()).Interface().(canonical), reflect.New(reflect.TypeOf(v).Elem()).Interface()
			if err := back.scanJSON(got); err != nil {
				t.Fatalf("%T: the scanner refuses the encoder's own %q: %v", v, got, err)
			}
			if err := json.Unmarshal(got, ref); err != nil || !reflect.DeepEqual(back, ref) {
				t.Fatalf("%T of %q: scanned %+v, encoding/json %+v (%v)", v, got, back, ref, err)
			}
		}
		if got, want := refusal.AppendJSON(nil), marshalOf(t, refusal); !bytes.Equal(got, want) {
			t.Fatalf("error\n got %q\nwant %q", got, want)
		}
	})
}

func marshalOf(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAgentGrammar pins which documents the scanners take — everything the
// encoders write, whitespace, member order and escapes aside — and that the
// rest reaches encoding/json, which answers it as it always has.
func TestAgentGrammar(t *testing.T) {
	for _, tc := range []struct {
		doc      string
		accepted int // how many of the ten scanners take it
	}{
		{`{"task_id":"t","code":"AAEC","epoch":1}` + "\n", 1},
		{" {\t\"epoch\" : 1 ,\r\n\"code\":\"AAEC\", \"task_id\" : \"t\\u00e9\" } ", 1},
		{`{"worker_id":"w","code":"AAEC","epoch":1}`, 3}, // register, reregister, release
		{`{"worker_id":"w","code":"AAEC","capacity":2}`, 1},
		{`{"worker_id":"w"}`, 5}, // and withdraw, and a task's answer
		{`{"worker_id":"w","code":null}`, 3},
		{`{}`, 10},
		{`{"epoch":2,"cols":8,"rows":8,"epsilon":0.6,"min_x":-1e2,"max_y":1.5E+1}`, 1},
		{`{"epsilon":06}`, 0},
		{`{"tasks":[{"task_id":"a","code":"AAEC"},{"code":"AQ=="}]}`, 1},
		{`{"ok":true,"error":{"code":"parked","retryable":true},"parked":true,"epoch":2}`, 1},
		{`{"assigned":true,"worker_id":"w","epoch":2}`, 1},
		{`{"results":[{"assigned":true,"worker_id":"w"}]}`, 1},
		{`{"Task_ID":"t"}`, 0},
		{`{"task_id":"t","task_id":"u"}`, 0},
		{`{"task_id":"t","priority":1}`, 0},
		{`{"task_id":"t","epoch":1.5}`, 0},
		{`{"task_id":"t"}]`, 0},
		{`{"ok":true,"error":null}`, 0},
		{`{"results":[null]}`, 0},
	} {
		if got := checkAgentScan(t, []byte(tc.doc)); got != tc.accepted {
			t.Errorf("%q: %d scanners take it, want %d", tc.doc, got, tc.accepted)
		}
	}
}

// TestAgentCodecAllocs pins what the agent codec allocates: encoding costs
// nothing past the buffer, and decoding what the decoded value keeps — its
// strings and its code.
func TestAgentCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins are meaningless under -race: the detector's instrumentation allocates")
	}
	req := &TaskRequest{TaskID: "t-9999", Code: []byte{0, 1, 2, 3, 4, 5, 6}, Epoch: 4}
	resp := &TaskResponse{Assigned: true, WorkerID: "w-12345", Epoch: 4}
	buf := make([]byte, 0, 256)
	for _, v := range []canonical{req, resp, &RegisterResponse{OK: true, Epoch: 4}} {
		if n := testing.AllocsPerRun(100, func() { buf = v.appendJSON(buf[:0]) }); n != 0 {
			t.Errorf("encoding %T: %v allocs, want 0", v, n)
		}
	}
	for _, tc := range []struct {
		v      canonical
		doc    []byte
		allocs float64
	}{
		{new(TaskRequest), req.appendJSON(nil), 2},
		{new(TaskResponse), resp.appendJSON(nil), 1},
		{new(RegisterResponse), []byte(`{"ok":true,"epoch":4}`), 0},
	} {
		if n := testing.AllocsPerRun(100, func() {
			if err := tc.v.scanJSON(tc.doc); err != nil {
				t.Fatal(err)
			}
		}); n > tc.allocs {
			t.Errorf("scanning %s: %v allocs, want ≤ %v", strings.TrimSpace(string(tc.doc)), n, tc.allocs)
		}
	}
}

// BenchmarkAgentCodec prices the codec's share of an agent call: a submit
// and a release, each request encoded by the client and decoded by the
// server, each answer encoded by the server and decoded by the client, in
// pooled scratch. json is every message through encoding/json — the path
// before the codec, and its fallback now — and canonical through the codec.
func BenchmarkAgentCodec(b *testing.B) {
	code := []byte{0, 1, 2, 3, 4, 5}
	for _, side := range []struct {
		name string
		enc  func(*wire.Buf, any) error
		dec  func(*wire.Buf, []byte, any) error
	}{
		{"json", (*wire.Buf).Encode, func(buf *wire.Buf, doc []byte, v any) error { return buf.UnmarshalFrom(doc, v) }},
		{"canonical", encodeJSON, decodeJSON},
	} {
		hop := func(in, out any) {
			buf := wire.Get()
			defer wire.Put(buf)
			if err := side.enc(buf, in); err != nil {
				b.Fatal(err)
			}
			if err := side.dec(buf, buf.Bytes(), out); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(side.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hop(&TaskRequest{TaskID: "t", Code: code}, new(TaskRequest))
				hop(&TaskResponse{Assigned: true, WorkerID: "w1234", Epoch: 1}, new(TaskResponse))
				hop(&ReleaseRequest{WorkerID: "w1234", Code: code}, new(ReleaseRequest))
				hop(&RegisterResponse{OK: true, Epoch: 1}, new(RegisterResponse))
			}
		})
	}
}
