package platform

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/pombm/pombm/internal/wire"
	"github.com/pombm/pombm/internal/wiretap"
	"github.com/pombm/pombm/internal/workload"
)

// FuzzAgentStream sends arbitrary bytes after /v1/stream's 101, in reads of
// arbitrary size. The server must not panic; must not allocate past what the
// frame cap and its input allow; must answer exactly the frames that arrived
// whole before the first that broke the framing — a frame that names an
// agent call with byte-for-byte the status and body a twin server answers
// the same JSON POSTed to the call's path, which is the framing differential
// and, through the twin, a fuzzer on the six /v1 POST handlers; any other
// with a 400 — and must end with the twin's books: nothing but a well-framed
// call moves the population or a lifetime-ε total.
func FuzzAgentStream(f *testing.F) {
	pub, err := NewServer(workload.SyntheticRegion, 8, 8, 0.6, 42)
	if err != nil {
		f.Fatal(err)
	}
	code := func(i int) string {
		return `"` + base64.StdEncoding.EncodeToString(leaf(pub, i)) + `"`
	}
	frame := func(k Kind, body string) []byte {
		return wire.AppendFrame(nil, func(dst []byte) []byte { return append(append(dst, byte(k)), body...) })
	}
	register := frame(KindRegister, `{"worker_id":"w9","code":`+code(9)+`}`+"\n")
	task := frame(KindTask, `{"task_id":"t","code":`+code(9)+`}`)
	release := frame(KindRelease, `{"worker_id":"w9","code":`+code(20)+`,"epoch":1}`)
	batch := frame(KindTasks, `{"tasks":[{"task_id":"a","code":`+code(1)+`},{"task_id":"b","code":"eA=="},{"code":`+code(2)+`,"epoch":7}]}`)
	for _, seed := range []struct {
		stream []byte
		chunk  uint16
	}{
		{wire.AppendFrame(nil, func(dst []byte) []byte { return dst }), 0}, // a zero-length frame: no kind
		{[]byte{0, 0x10, 0, 1, byte(KindTask), '{', '}'}, 0},               // length = cap + 1
		{register[:wire.FrameHeader-1], 0},                                 // a header cut short
		{register[:len(register)-5], 0},                                    // a payload cut short
		{slices.Concat(register, task, release), 0},                        // a worker's life in one write
		{task, uint16(len(task)/3 + 1)},                                    // one frame split across three reads
		{slices.Concat(register, []byte("garbage")), 0},                    // a valid frame followed by garbage
		{slices.Concat(register, register, batch, frame(KindWithdraw, `{"worker_id":"w9"}`), frame(KindWithdraw, "")), 7},
		{slices.Concat(frame(KindReregister, `{"worker_id":"w100","code":`+code(3)+`}`), frame(kindRotate, `{"reports":[]}`), frame(99, "{}"), task), 1},
		{slices.Concat(frame(KindTask, `{"task_id":1}`), frame(KindRelease, `{"worker_id":"w101"} x`), []byte{0xff, 0xff, 0xff, 0xff}, task), 3},
		// A tail longer than the decoder's refill, then calls that draw the
		// same pooled scratch.
		{slices.Concat(frame(KindWithdraw, `{}`+strings.Repeat(" ", 1000)), register, frame(KindTask, `{"task_id":"t","code":`+code(9)+`}`+strings.Repeat("\n", 5000)+"]"), release), 0},
	} {
		f.Add(seed.stream, seed.chunk)
	}

	f.Fuzz(func(t *testing.T, stream []byte, chunk uint16) {
		newServer := func() (*Server, http.Handler) {
			s, err := NewServer(workload.SyntheticRegion, 8, 8, 0.6, 42, WithLifetimeBudget(3))
			if err != nil {
				t.Fatal(err)
			}
			for w := 100; w < 104; w++ {
				if resp := s.Register(RegisterRequest{WorkerID: fmt.Sprint("w", w), Code: leaf(s, w%64)}); !resp.OK {
					t.Fatal(resp.Reason)
				}
			}
			return s, Handler(s)
		}
		s, handler := newServer()
		twin, twinHandler := newServer()

		conn := &wiretap.ScriptedConn{Script: bytes.NewReader(stream), Chunk: int(chunk)}
		upgrade := httptest.NewRequest(http.MethodGet, PathStream, nil)
		upgrade.Header.Set("Connection", "Upgrade")
		upgrade.Header.Set("Upgrade", agentProtocol)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		handler.ServeHTTP(wiretap.Hijackable{ResponseWriter: httptest.NewRecorder(), Conn: conn}, upgrade)
		runtime.ReadMemStats(&after)
		// One frame's buffer and its growth, and what decoding and answering
		// the input's own calls costs: a batch answers each three-byte task
		// with a refusal a hundred times its size.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*maxRequestBytes+512*len(stream)+1<<16); grew > limit {
			t.Fatalf("%d bytes of input made the server allocate %d, limit %d", len(stream), grew, limit)
		}

		answers, ok := bytes.CutPrefix(conn.Wrote.Bytes(), []byte(wire.SwitchingProtocols(agentProtocol)))
		if !ok {
			t.Fatalf("the server's answer does not open with the 101: %q", conn.Wrote.Bytes())
		}
		got := bufio.NewReader(bytes.NewReader(answers))
		for rest := stream; len(rest) >= wire.FrameHeader; {
			size := int(binary.BigEndian.Uint32(rest))
			if size > maxRequestBytes || len(rest) < wire.FrameHeader+size {
				break // the stream ends at the first frame that is too long or cut short
			}
			payload := rest[wire.FrameHeader : wire.FrameHeader+size]
			rest = rest[wire.FrameHeader+size:]
			answer, err := wire.ReadFrame(got, nil, maxResponseBytes)
			if err != nil || len(answer) < answerHeader {
				t.Fatalf("frame %q answered %q (err %v)", payload, answer, err)
			}
			status, body := int(binary.BigEndian.Uint16(answer)), answer[answerHeader:]
			if len(payload) == 0 || payload[0] < byte(KindRegister) || payload[0] > byte(KindTasks) {
				if status != http.StatusBadRequest || !bytes.Contains(body, []byte(`"code":"`+CodeBadRequest+`"`)) {
					t.Fatalf("frame %q, which names no agent call, answered %d %s", payload, status, body)
				}
				continue
			}
			posted := httptest.NewRecorder()
			twinHandler.ServeHTTP(posted, httptest.NewRequest(http.MethodPost, kindPaths[payload[0]], bytes.NewReader(payload[1:])))
			if status != posted.Code || !bytes.Equal(body, posted.Body.Bytes()) {
				t.Fatalf("call %q answered over a frame:\n%d %s\nPOSTed to the twin:\n%d %s", payload, status, body, posted.Code, posted.Body.Bytes())
			}
		}
		if extra, err := wire.ReadFrame(got, nil, maxResponseBytes); err != io.EOF {
			t.Fatalf("the server answered a frame that never arrived whole: %q (err %v)", extra, err)
		}
		if a, b := s.Stats(), twin.Stats(); !reflect.DeepEqual(a, b) {
			t.Fatalf("the stream left the server at\n%+v\nthe same calls POSTed leave the twin at\n%+v", a, b)
		}
	})
}
