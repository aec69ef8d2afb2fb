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

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/wire"
	"github.com/pombm/pombm/internal/wiretap"
)

// FuzzNodeWire throws arbitrary bytes at the decoders that make up a node's
// whole surface — the /v2/node/ops envelope, all eleven kinds of it, and the
// two documents, init and the streamed prepare. Whatever arrives, the node
// must not panic, must answer a JSON object carrying ok or error, must leave
// its serving state alone when it refuses and when every op of the envelope
// only reads (a mine sizes its own answer by k, and still only reads), and
// must not keep a refused prepare's population staged for a later commit —
// a body that was cut, miscounts its inserts or goes on past its count
// included. A prepare is sent twice: the second is answered as the first
// was, from the replay cache when the first applied under a key.
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
	header := func(rest string) string {
		return `{"idem":"p","epoch":2` + rest + `,"tree":` + string(treeJSON) + `}` + "\n"
	}
	insert := func(id int) string { return `{"code":` + nextCode + `,"id":` + strconv.Itoa(id) + `}` + "\n" }
	staged := header("") + insert(1) + `{"end":1}` + "\n"

	mineBody := func(codes, rest string) string {
		return `{"ops":[{"kind":"mine","codes":[` + codes + `]` + rest + `}]}`
	}
	maxInt := strconv.Itoa(math.MaxInt)

	const ops, prep, initDoc = uint8(0), uint8(1), uint8(2)
	paths := []string{PathNodeOps, PathNodePrepare, PathNodeInit}
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
		{prep, false, staged},
		{prep, true, staged},
		{prep, true, header("") + `{"end":0}`}, // an empty partition
		{prep, true, header(`,"shards":2`) + insert(1) + insert(2) + `{"end":2}`},
		{prep, true, header("") + insert(1)},                                                 // cut between two values
		{prep, true, header("")},                                                             // no end
		{prep, true, header("") + insert(1) + `{"end":2}`},                                   // end ≠ count
		{prep, true, header("") + insert(1) + `{"end":1}` + insert(2)},                       // values after end
		{prep, true, insert(1) + header("") + `{"end":1}`},                                   // an insert before the header
		{prep, true, header(`,"extra":{"a":[1,{"b":null}]}`) + insert(1) + `{"end":1}`},      // an unknown member, in the header
		{prep, true, header("") + `{"code":` + nextCode + `,"id":1,"note":0}` + `{"end":1}`}, // and in an insert
		{prep, true, `{"idem":"p","epoch":2,"tree":null}{"end":0}`},
		{prep, true, header("") + insert(1) + `{"end":1,"id":1}`}, // an end that is also an insert
		{prep, true, header("") + insert(1) + `{"end":1}` + ` ]`},
		{prep, true, header("") + `{"code":` + nextCode + `,"id":1`}, // cut inside a value
		{prep, true, `[]`},
		{ops, false, mineBody(code(0), `,"k":4`)}, // mine before init
		{ops, true, mineBody(code(0)+`,`+code(1), `,"k":4,"epoch":1`)},
		{ops, true, mineBody(code(0), `,"k":0`)},
		{ops, true, mineBody(code(0), `,"k":-7`)},
		{ops, true, mineBody(code(0), `,"k":`+maxInt)},
		{ops, true, mineBody(code(0), `,"k":1e30`)},
		{ops, true, mineBody(`"","AA==",`+nextCode+`,"`+strings.Repeat("A", 400)+`","/w=="`, `,"k":4`)}, // empty, short, other-tree, over-long, digit 255
		{ops, true, mineBody(code(0), `,"k":4,"epoch":9`)},                                              // stale epoch pin
		{ops, true, `{"ops":[{"kind":"mine","codes":null,"k":4}]}`},
		{ops, true, `{"ops":[{"kind":"mine","k":4}]}`},            // a node sent no codes
		{ops, true, `{"ops":[{"kind":"mine","codes":[` + code(0)}, // truncated
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
		// The other kinds that were endpoints of their own.
		{ops, true, `{"ops":[{"kind":"status"},{"kind":"status","epoch":9},{"kind":"min-id"},{"kind":"min-id","epoch":9}]}`},
		{ops, true, `{"ops":[{"kind":"pop-min","idem":"m","epoch":1},{"kind":"pop-min","idem":"m","epoch":1},{"kind":"pop-min","epoch":9}]}`},
		{ops, true, `{"ops":[{"kind":"commit","idem":"c","epoch":2},{"kind":"abort","idem":"b","epoch":2},{"kind":"commit","epoch":1}]}`},
		{ops, false, `{"ops":[{"kind":"status"},{"kind":"min-id"},{"kind":"pop-min"},{"kind":"commit","epoch":2},{"kind":"abort","epoch":2}]}`},
		{initDoc, false, `{"tree":` + string(treeJSON) + `,"policy":"capacity-greedy","idem":"i"}`},
		{initDoc, true, `{"tree":` + string(treeJSON) + `,"shards":3,"default_capacity":2}` + "\n"},
		{initDoc, true, `{"tree":null}`},
		{initDoc, true, `{"tree":` + string(treeJSON) + `,"policy":"teleport"}`},
		{initDoc, true, `{"tree":` + string(treeJSON) + `,"extra":1}`},
		{initDoc, true, `{"tree":` + string(treeJSON) + `}{"end":0}`}, // a value after the header
		{initDoc, true, `{"tree":` + string(treeJSON)},                // cut
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
		stagedNow := func() *engine.PreparedSwap {
			node.mu.Lock()
			defer node.mu.Unlock()
			return node.staged
		}
		before := state()

		path := paths[int(endpoint)%len(paths)]
		handler := NodeHandler(node)
		post := func() (raw []byte, accepted bool, results []json.RawMessage) {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
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
			return rec.Body.Bytes(), resp.OK != nil && *resp.OK, resp.Results
		}
		raw, accepted, results := post()

		switch path {
		case PathNodeInit:
			if after := state(); !accepted && after != before {
				t.Fatalf("a refused init moved the serving state: %s -> %s", before, after)
			} else if accepted && after != fmt.Sprint(engine.FirstEpoch, 0, 0, nil) {
				t.Fatalf("an accepted init left the node at %s, want a fresh engine", after)
			}
		case PathNodePrepare:
			// A prepare only ever stages; the serving state moves at commit.
			if after := state(); after != before {
				t.Fatalf("prepare moved the serving state: %s -> %s", before, after)
			}
			kept := stagedNow()
			if (kept != nil) != accepted {
				t.Fatalf("prepare accepted=%v but staged=%v: %s", accepted, kept != nil, raw)
			}
			var head struct{ Idem string }
			json.NewDecoder(bytes.NewReader(body)).Decode(&head) // an accepted body's header decodes
			again, _, _ := post()
			if !bytes.Equal(again, raw) {
				t.Fatalf("the same prepare answered\n%s\nthen\n%s", raw, again)
			}
			if accepted && head.Idem != "" && stagedNow() != kept {
				t.Fatalf("a replayed prepare (idem %q) staged again", head.Idem)
			}
			if after := state(); after != before {
				t.Fatalf("the second prepare moved the serving state: %s -> %s", before, after)
			}
		default:
			applied := false
			for _, r := range results {
				applied = applied || bytes.Contains(r, []byte(`"ok":true`))
			}
			if !accepted && len(results) > 0 {
				t.Fatalf("refused envelope carries results: %s", raw)
			}
			// An op that answers ok may still have moved nothing: the reads.
			scanned, _ := scanOps(body, nil)
			reads := true
			for _, op := range scanned {
				reads = reads && (op.Kind == OpMine || op.Kind == OpStatus || op.Kind == OpMinID)
			}
			if !applied || reads {
				if after := state(); after != before {
					t.Fatalf("an envelope with no accepted op, or of reads alone, moved the state: %s -> %s", before, after)
				}
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
		// The kinds that were endpoints of their own: the root tier's poll and
		// pop with the pop replayed, a mine of a routed code and of none, and
		// a commit and an abort with nothing staged.
		{slices.Concat(frame(`{"ops":[{"kind":"status"},{"kind":"min-id","epoch":1},{"kind":"pop-min","idem":"s-4","epoch":1}]}`),
			frame(`{"ops":[{"kind":"pop-min","idem":"s-4","epoch":1},{"kind":"status","epoch":1},{"kind":"min-id","epoch":9}]}`)), 0},
		{slices.Concat(insert, frame(`{"ops":[{"kind":"mine","codes":[`+code(0)+`,`+code(1)+`],"k":3,"epoch":1},{"kind":"mine","k":2}]}`)), 5},
		{frame(`{"ops":[{"kind":"commit","idem":"s-5","epoch":2},{"kind":"abort","idem":"s-6","epoch":2},{"kind":"commit","idem":"s-7","epoch":1}]}`), 0},
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
