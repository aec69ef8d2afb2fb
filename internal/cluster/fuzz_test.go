package cluster

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/wire"
	"github.com/pombm/pombm/internal/wiretap"
)

// FuzzNodeWire throws arbitrary bytes at the two decoders that make up a
// node's whole mutation surface — the /v2/node/ops envelope and the
// hand-rolled streaming prepare (prepareHandler, skipJSONValue) — and at
// /v2/node/mine, the one endpoint whose request sizes its own answer (k).
// Whatever arrives, the node must not panic, must answer a JSON object
// carrying ok or error, must leave its serving state alone when it refuses
// (and always on a mine, which only reads), and must not keep a refused
// prepare's population staged for a later commit.
func FuzzNodeWire(f *testing.F) {
	tree := buildTree(f, 7)
	next := buildTree(f, 8)
	treeJSON, err := json.Marshal(next)
	if err != nil {
		f.Fatal(err)
	}
	code := func(i int) string {
		return `"` + base64.StdEncoding.EncodeToString([]byte(tree.CodeOf(i))) + `"`
	}
	nextCode := `"` + base64.StdEncoding.EncodeToString([]byte(next.CodeOf(0))) + `"`
	prepBody := func(fields string) string { return `{"idem":"p",` + fields + `}` }
	staged := `"epoch":2,"tree":` + string(treeJSON) + `,"inserts":[{"code":` + nextCode + `,"id":1}]`

	mineBody := func(codes, rest string) string { return `{"codes":[` + codes + `]` + rest + `}` }
	maxInt := strconv.Itoa(math.MaxInt)

	const ops, prep, mine = uint8(0), uint8(1), uint8(2)
	paths := []string{PathNodeOps, PathNodePrepare, PathNodeMine}
	for _, seed := range []struct {
		endpoint uint8
		inited   bool
		body     string
	}{
		{ops, false, `{"ops":[{"kind":"insert","idem":"a","code":` + code(0) + `,"id":1}]}`}, // ops before init
		{ops, true, `{"ops":null}`},
		{ops, true, `{"ops":[null]}`},
		{ops, true, `[{"kind":"insert"}]`}, // a top-level array
		{ops, true, `{"ops":[{"kind":"teleport","idem":"a","code":` + code(0) + `}]}`},
		{ops, true, `{"ops":[{"kind":"insert","code":` + code(0) + `,"id":-1}]}`},
		{ops, true, `{"ops":[{"kind":"insert","code":` + code(0) + `,"id":4294967296}]}`},
		{ops, true, `{"ops":[{"kind":"insert","code":` + code(1) + `,"id":7,"capacity":-5}]}`},
		{ops, true, `{"ops":[{"kind":"insert","code":` + code(1) + `,"id":7,"capacity":4294967296}]}`},
		{ops, true, `{"ops":[{"kind":"assign-subtree","code":""},{"kind":"remove","code":"","id":100}]}`}, // empty code
		{ops, true, `{"ops":[{"kind":"consume","idem":"c","code":` + code(0) + `,"id":100,"epoch":1},` +
			`{"kind":"add-capacity","code":` + code(0) + `,"id":100,"epoch":9}]}`},
		{prep, false, prepBody(staged)},
		{prep, true, prepBody(staged)},
		{prep, true, `{"inserts":[{"code":` + nextCode + `,"id":1}],"epoch":2,"tree":` + string(treeJSON) + `}`}, // inserts before epoch
		{prep, true, prepBody(staged + `,"inserts":[{"code":` + nextCode + `,"id":2}]`)},                         // duplicate inserts
		{prep, true, prepBody(staged + `,"epoch":3`)},
		{prep, true, prepBody(staged + `,"extra":{"a":[1,{"b":null}]}`)},
		{prep, true, prepBody(`"epoch":2,"tree":null,"inserts":[]`)},
		{prep, true, prepBody(`"epoch":2,"tree":` + string(treeJSON) + `,"inserts":null`)},
		{prep, true, prepBody(`"epoch":2,"skipped":[[{"x":1}],2],"tree":` + string(treeJSON) + `,"inserts":[{"code":` + nextCode + `,"id":1},`)},
		{prep, true, `[]`},
		{mine, false, mineBody(code(0), `,"k":4`)}, // mine before init
		{mine, true, mineBody(code(0)+`,`+code(1), `,"k":4,"epoch":1`)},
		{mine, true, mineBody(code(0), `,"k":0`)},
		{mine, true, mineBody(code(0), `,"k":-7`)},
		{mine, true, mineBody(code(0), `,"k":`+maxInt)},
		{mine, true, mineBody(code(0), `,"k":1e30`)},
		{mine, true, mineBody(`"","AA==",`+nextCode+`,"`+strings.Repeat("A", 400)+`","/w=="`, `,"k":4`)}, // empty, short, other-tree, over-long, digit 255
		{mine, true, mineBody(code(0), `,"k":4,"epoch":9`)},                                              // stale epoch pin
		{mine, true, `{"codes":null,"k":4}`},
		{mine, true, `{"codes":[` + code(0)}, // truncated
		// Where the envelope scanner is stricter than the encoding/json
		// decoder it replaced (protocol.go lists them): unknown members, a
		// known one in another case, duplicates, null (seeds 1 and 2 are
		// the other nulls) — after an op that would have applied.
		{ops, true, `{"ops":[{"kind":"insert","idem":"u","code":` + code(0) + `,"id":5}],"trace":"x"}`},
		{ops, true, `{"ops":[{"kind":"insert","idem":"u","code":` + code(0) + `,"id":5},{"kind":"insert","code":` + code(1) + `,"id":6,"note":{"a":[1]}}]}`},
		{ops, true, `{"ops":[{"Kind":"insert","Code":` + code(0) + `,"ID":5}]}`},
		{ops, true, `{"ops":[{"kind":"insert","code":` + code(0) + `,"id":5,"id":6}]}`},
		{ops, true, `{"ops":[{"kind":"insert","code":` + code(0) + `,"id":5,"capacity":null}]}`},
		// What it takes as before: whitespace, any member order, escapes
		// in keys and strings; and refuses as before: non-integer numbers.
		{ops, true, " {\n\t\"ops\" : [ { \"id\" : 5 , \"\\u0063ode\" : " + code(0) + " , \"kind\" : \"ins\\u0065rt\" } ] }\r\n"},
		{ops, true, `{"ops":[{"kind":"insert","code":` + code(0) + `,"id":5.0},{"kind":"remove","code":` + code(0) + `,"id":1e2}]}`},
	} {
		f.Add(seed.endpoint, seed.inited, []byte(seed.body))
	}

	f.Fuzz(func(t *testing.T, endpoint uint8, inited bool, body []byte) {
		node := NewNode()
		if inited {
			if err := node.Init(InitRequest{Tree: tree, Policy: "capacity-greedy"}); err != nil {
				t.Fatal(err)
			}
			for id := 100; id < 104; id++ {
				if err := node.Insert(tree.CodeOf(id%tree.NumPoints()), id, 2, 0, ""); err != nil {
					t.Fatal(err)
				}
			}
		}
		state := func() string {
			st, err := node.Status(0)
			return fmt.Sprint(st.Epoch, st.Len, st.Units, err)
		}
		before := state()

		path := paths[int(endpoint)%len(paths)]
		rec := httptest.NewRecorder()
		NodeHandler(node).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))

		var resp struct {
			OK      *bool             `json:"ok"`
			Err     json.RawMessage   `json:"error"`
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s answered %d with a non-object body %q: %v", path, rec.Code, rec.Body.Bytes(), err)
		}
		if resp.OK == nil && resp.Err == nil {
			t.Fatalf("%s answer carries neither ok nor error: %s", path, rec.Body.Bytes())
		}
		accepted := resp.OK != nil && *resp.OK

		if path == PathNodeMine {
			if after := state(); after != before {
				t.Fatalf("mine moved the serving state: %s -> %s", before, after)
			}
			return
		}
		if path == PathNodePrepare {
			// A prepare only ever stages; the serving state moves at commit.
			if after := state(); after != before {
				t.Fatalf("prepare moved the serving state: %s -> %s", before, after)
			}
			node.mu.Lock()
			kept := node.staged != nil
			node.mu.Unlock()
			if kept != accepted {
				t.Fatalf("prepare accepted=%v but staged=%v: %s", accepted, kept, rec.Body.Bytes())
			}
			return
		}
		applied := false
		for _, r := range resp.Results {
			applied = applied || bytes.Contains(r, []byte(`"ok":true`))
		}
		if !accepted && len(resp.Results) > 0 {
			t.Fatalf("refused envelope carries results: %s", rec.Body.Bytes())
		}
		if !applied {
			if after := state(); after != before {
				t.Fatalf("an envelope with no accepted op moved the state: %s -> %s", before, after)
			}
		}
	})
}

// FuzzOpsStream sends arbitrary bytes after the 101, in reads of arbitrary
// size. The node must not panic; must not allocate past what the frame cap
// and its input allow; must answer exactly the frames that arrived whole
// before the first that broke the framing, each with byte-for-byte the body
// a twin node answers the same envelope POSTed — the framing differential,
// which is what keeping the one-shot POST buys — and must end in the twin's
// state: nothing but a well-framed, well-formed envelope moves it.
func FuzzOpsStream(f *testing.F) {
	tree := buildTree(f, 7)
	code := func(i int) string {
		return `"` + base64.StdEncoding.EncodeToString([]byte(tree.CodeOf(i))) + `"`
	}
	frame := func(envelope string) []byte {
		return wire.AppendFrame(nil, func(dst []byte) []byte { return append(dst, envelope...) })
	}
	insert := frame(`{"ops":[{"kind":"insert","idem":"s-1","code":` + code(0) + `,"id":5,"capacity":2}]}` + "\n")
	mixed := frame(`{"ops":[{"kind":"assign-subtree","idem":"s-2","code":` + code(0) + `},` +
		`{"kind":"remove","idem":"s-3","code":` + code(1) + `,"id":101},{"kind":"consume","code":` + code(0) + `,"id":9,"epoch":7}]}`)
	for _, seed := range []struct {
		stream []byte
		chunk  uint16
	}{
		{frame(""), 0},                                                          // a zero-length frame
		{[]byte{0, 0x10, 0, 1, '{', '}'}, 0},                                    // length = cap + 1
		{insert[:wire.FrameHeader-1], 0},                                        // a header cut short
		{insert[:len(insert)-5], 0},                                             // a payload cut short
		{slices.Concat(insert, mixed), 0},                                       // two frames in one write
		{insert, uint16(len(insert)/3 + 1)},                                     // one frame split across three writes
		{slices.Concat(insert, []byte("garbage")), 0},                           // a valid frame followed by garbage
		{slices.Concat(insert, insert, mixed, frame(`{"ops":null}`), mixed), 7}, // replays, a refused envelope
		{slices.Concat(mixed, []byte{0xff, 0xff, 0xff, 0xff}, insert), 1},
	} {
		f.Add(seed.stream, seed.chunk)
	}

	f.Fuzz(func(t *testing.T, stream []byte, chunk uint16) {
		newNode := func() (*Node, http.Handler) {
			node := NewNode()
			if err := node.Init(InitRequest{Tree: tree, Policy: "capacity-greedy"}); err != nil {
				t.Fatal(err)
			}
			for id := 100; id < 104; id++ {
				if err := node.Insert(tree.CodeOf(id%tree.NumPoints()), id, 2, 0, ""); err != nil {
					t.Fatal(err)
				}
			}
			return node, NodeHandler(node)
		}
		state := func(node *Node) string {
			st, err := node.Status(0)
			return fmt.Sprint(st.Epoch, st.Len, st.Units, err)
		}
		node, handler := newNode()
		twin, twinHandler := newNode()

		conn := &wiretap.ScriptedConn{Script: bytes.NewReader(stream), Chunk: int(chunk)}
		upgrade := httptest.NewRequest(http.MethodPost, PathNodeOps, nil)
		upgrade.Header.Set("Connection", "Upgrade")
		upgrade.Header.Set("Upgrade", opsProtocol)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		handler.ServeHTTP(wiretap.Hijackable{ResponseWriter: httptest.NewRecorder(), Conn: conn}, upgrade)
		runtime.ReadMemStats(&after)
		// One frame's buffer and its growth, and what decoding and answering
		// the input's own ops costs.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*maxFrame+64*len(stream)+1<<16); grew > limit {
			t.Fatalf("%d bytes of input made the node allocate %d, limit %d", len(stream), grew, limit)
		}

		answers, ok := bytes.CutPrefix(conn.Wrote.Bytes(), []byte(wire.SwitchingProtocols(opsProtocol)))
		if !ok {
			t.Fatalf("the node's answer does not open with the 101: %q", conn.Wrote.Bytes())
		}
		got := bufio.NewReader(bytes.NewReader(answers))
		for rest := stream; len(rest) >= wire.FrameHeader; {
			size := int(binary.BigEndian.Uint32(rest))
			if size > maxFrame || len(rest) < wire.FrameHeader+size {
				break // the stream ends at the first frame that is too long or cut short
			}
			envelope := rest[wire.FrameHeader : wire.FrameHeader+size]
			rest = rest[wire.FrameHeader+size:]
			posted := httptest.NewRecorder()
			twinHandler.ServeHTTP(posted, httptest.NewRequest(http.MethodPost, PathNodeOps, bytes.NewReader(envelope)))
			answer, err := wire.ReadFrame(got, nil, maxFrame)
			if err != nil || !bytes.Equal(answer, posted.Body.Bytes()) {
				t.Fatalf("envelope %q answered over a frame (err %v):\n%s\nPOSTed to the twin:\n%s", envelope, err, answer, posted.Body.Bytes())
			}
		}
		if extra, err := wire.ReadFrame(got, nil, maxFrame); err != io.EOF {
			t.Fatalf("the node answered a frame that never arrived whole: %q (err %v)", extra, err)
		}
		if a, b := state(node), state(twin); a != b {
			t.Fatalf("the stream left the node at %s, the same envelopes POSTed leave the twin at %s", a, b)
		}
	})
}
