package platform

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pombm/pombm/internal/wiretap"
	"github.com/pombm/pombm/internal/workload"
)

// tappedAgent is one Client over a wiretap against one server whose
// connections a test can kill: the rig of the torn-stream tests.
type tappedAgent struct {
	t      *testing.T
	srv    *Server
	ts     *wiretap.MortalServer
	tap    *wiretap.Tap
	client *Client
}

func newTappedAgent(t *testing.T, opts ...ServerOption) *tappedAgent {
	s, err := NewServer(workload.SyntheticRegion, 8, 8, 0.6, 42, opts...)
	if err != nil {
		t.Fatal(err)
	}
	r := &tappedAgent{t: t, srv: s, ts: wiretap.NewMortalServer(t, Handler(s))}
	var hc *http.Client
	r.tap, hc = wiretap.New(t, NewTransport())
	r.client = &Client{BaseURL: r.ts.URL, HTTP: hc}
	return r
}

// parkedStreams reads how many streams the Client holds parked.
func (r *tappedAgent) parkedStreams() int {
	r.client.mu.Lock()
	defer r.client.mu.Unlock()
	return len(r.client.parked)
}

// next returns the next frame to leave, failing the test if none does.
func next(t *testing.T, arrived <-chan *wiretap.Frame, what string) *wiretap.Frame {
	t.Helper()
	select {
	case f := <-arrived:
		return f
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return nil
	}
}

// TestHopAccountCloses drives submit + release cycles over loopback and reads
// the hop's account from both ends: every stage of a framed submit has a
// non-zero median and they nest — the Server call inside the frame's service
// inside the Client's exchange — so service − core prices the hop's own work
// on the server and exchange − service the transport. The counters agree
// with what was sent, /v1/stats carries the account and Server.Stats does
// not.
func TestHopAccountCloses(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	tr := NewTransport()
	defer tr.CloseIdleConnections()
	client := &Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: tr}}
	defer client.Close()

	const workers, cycles = 16, 300
	for w := 0; w < workers; w++ {
		if resp := client.Register(RegisterRequest{WorkerID: fmt.Sprint("w", w), Code: leaf(s, w)}); !resp.OK {
			t.Fatal(resp.Reason)
		}
	}
	for i := 0; i < cycles; i++ {
		got := client.Submit(TaskRequest{TaskID: "t", Code: leaf(s, i%64)})
		if !got.Assigned {
			t.Fatal(got.Reason)
		}
		if resp := client.Release(ReleaseRequest{WorkerID: got.WorkerID}); !resp.OK {
			t.Fatal(resp.Reason)
		}
	}

	snap := s.AgentSnapshot()
	task := &snap.Kinds[KindTask]
	exchange := client.ExchangeSnapshot(KindTask)
	core, service, exch := task.Core.Quantile(0.5), task.FrameService.Quantile(0.5), exchange.Quantile(0.5)
	t.Logf("framed submit medians: core %.0f ns, frame service %.0f ns, exchange %.0f ns", core, service, exch)
	if !(0 < core && core <= service && service <= exch) {
		t.Errorf("submit medians core %.0f, service %.0f, exchange %.0f ns: want 0 < core ≤ service ≤ exchange", core, service, exch)
	}
	for name, n := range map[string]uint64{
		"core": task.Core.Count(), "frame service": task.FrameService.Count(), "exchange": exchange.Count(),
	} {
		if n != cycles {
			t.Errorf("%d submit %s observations, want %d", n, name, cycles)
		}
	}
	if want := int64(workers + 2*cycles); snap.Frames != want || snap.Posts != 0 || snap.Streams != 1 {
		t.Errorf("%d frames, %d posts, %d streams; want %d, 0 and 1", snap.Frames, snap.Posts, snap.Streams, want)
	}

	// One call the public way: it is a POST, and is counted as one.
	resp, err := http.Post(ts.URL+PathWithdraw, "application/json", strings.NewReader(`{"worker_id":"w0"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Agent == nil || st.Agent.Frames != snap.Frames || st.Agent.Posts != 1 || st.Agent.Streams != 1 {
		t.Fatalf("%s reports the hop as %+v", PathStats, st.Agent)
	}
	if got := st.Agent.Stages["task.frame_service"]; got.Count != cycles || got.P50Us <= 0 || got.P99Us < got.P50Us {
		t.Errorf("%s task.frame_service: %+v", PathStats, got)
	}
	if got := st.Agent.Stages["withdraw.post_service"]; got.Count != 1 {
		t.Errorf("%s withdraw.post_service: %+v", PathStats, got)
	}
	if _, ok := st.Agent.Stages["rotate.core"]; ok {
		t.Errorf("%s lists a stage nothing was recorded in", PathStats)
	}
	if s.Stats().Agent != nil {
		t.Error("Server.Stats carries timings: it must stay a function of the calls made")
	}
}

// countingBody is an endless request body that counts what is read of it.
type countingBody struct{ read atomic.Int64 }

func (c *countingBody) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	c.read.Add(int64(len(p)))
	return len(p), nil
}
func (c *countingBody) Close() error { return nil }

// TestOversizedPostIsRefusedUnread: a /v1/task body of 2 MiB is answered the
// typed refusal and a closing connection without being read past the 1 MiB
// cap — over a real connection on its declared length alone, and when it
// declares none as soon as the cap is passed.
func TestOversizedPostIsRefusedUnread(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	// The head and the first 64 KiB: were the server to wait for the rest it
	// would never answer.
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", PathTask, 2<<20)
	conn.Write(bytes.Repeat([]byte{' '}, 64<<10))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	var e Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || e.Code != CodeBadRequest || !resp.Close {
		t.Errorf("a 2 MiB body was answered %s, %+v, close %v; want 413, a typed bad_request and a closing connection", resp.Status, e, resp.Close)
	}

	body := &countingBody{}
	req := httptest.NewRequest(http.MethodPost, PathTask, body)
	req.ContentLength = -1
	rec := httptest.NewRecorder()
	Handler(s).ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("an endless body was answered %d, want 413", rec.Code)
	}
	if read := body.read.Load(); read > maxRequestBytes+4<<10 {
		t.Errorf("%d bytes of an endless body were read under a cap of %d", read, maxRequestBytes)
	}
}

// TestTornAgentStreamIsNotResent cuts the connection under a register, a
// submit and a release after the server applied the frame and before the
// Client read the answer. Each surfaces the typed retryable unavailable, the
// server's books show the call applied exactly once, and no second frame
// leaves: /v1 has no idempotency keys, so a resend would double-apply.
func TestTornAgentStreamIsNotResent(t *testing.T) {
	r := newTappedAgent(t, WithLifetimeBudget(100))
	arrived := r.tap.Park()
	eps := r.srv.Publication().Epsilon

	for i, step := range []struct {
		name  string
		call  func() *Error
		books func(st StatsResponse) bool
	}{
		{"register", func() *Error {
			return r.client.Register(RegisterRequest{WorkerID: "w1", Code: leaf(r.srv, 3)}).Err
		}, func(st StatsResponse) bool { return st.RegisteredWorkers == 1 && st.BudgetSpentTotal == eps }},
		{"submit", func() *Error {
			return r.client.Submit(TaskRequest{TaskID: "t1", Code: leaf(r.srv, 3)}).Err
		}, func(st StatsResponse) bool { return st.AssignedTasks == 1 && st.AvailableWorkers == 0 }},
		{"release", func() *Error {
			return r.client.Release(ReleaseRequest{WorkerID: "w1", Code: leaf(r.srv, 5)}).Err
		}, func(st StatsResponse) bool {
			return st.ReleasedWorkers == 1 && st.AvailableWorkers == 1 && st.BudgetSpentTotal == 2*eps
		}},
	} {
		done := make(chan *Error, 1)
		go func() { done <- step.call() }()
		next(t, arrived, "the "+step.name+" frame").Fate <- wiretap.Cut
		e := <-done
		if e == nil || !errors.Is(e, ErrUnavailable) || !e.Retryable {
			t.Fatalf("%s over a torn stream: %+v, want the typed retryable unavailable", step.name, e)
		}
		if st := r.srv.Stats(); !step.books(st) {
			t.Errorf("%s over a torn stream was not applied exactly once: %+v", step.name, st)
		}
		frames, _ := r.tap.Sent()
		if len(frames) != i+1 || r.tap.Upgrades() != i+1 {
			t.Fatalf("after the torn %s: %d frames on %d streams, want %d each — one frame a call, never a second", step.name, len(frames), r.tap.Upgrades(), i+1)
		}
		if got := r.parkedStreams(); got != 0 {
			t.Errorf("%d streams parked after a torn exchange", got)
		}
	}
	// What the caller learns by asking again: the register it was refused
	// had landed.
	done := make(chan RegisterResponse, 1)
	go func() { done <- r.client.Register(RegisterRequest{WorkerID: "w1", Code: leaf(r.srv, 3)}) }()
	next(t, arrived, "the repeated register").Fate <- wiretap.Forward
	if resp := <-done; resp.OK || resp.Err == nil || resp.Err.Code != CodeConflict {
		t.Errorf("registering w1 again: %+v, want the conflict that shows the torn one was applied", resp)
	}
}

// TestRestartCostsOneRefusal: when the server's side of every connection
// dies, the first call to meet a dead stream is refused and takes every
// parked stream with it; the next dials afresh and is served.
func TestRestartCostsOneRefusal(t *testing.T) {
	r := newTappedAgent(t)
	arrived := r.tap.Park()
	withdraw := func() *Error { return r.client.Withdraw(WithdrawRequest{WorkerID: "nobody"}).Err }

	// Four calls in flight at once: four streams.
	const streams = 4
	done := make(chan *Error, streams)
	var held []*wiretap.Frame
	for i := 0; i < streams; i++ {
		go func() { done <- withdraw() }()
		held = append(held, next(t, arrived, "a concurrent call's frame"))
	}
	for _, f := range held {
		f.Fate <- wiretap.Forward
	}
	for i := 0; i < streams; i++ {
		if e := <-done; e == nil || e.Code != CodeBadRequest {
			t.Fatalf("a warming call: %+v, want the server's own not-registered refusal", e)
		}
	}
	if got := r.parkedStreams(); got != streams || r.tap.Upgrades() != streams {
		t.Fatalf("%d streams parked of %d dialed, want %d", got, r.tap.Upgrades(), streams)
	}

	r.ts.KillConns()
	go func() { done <- withdraw() }()
	next(t, arrived, "the frame that meets a dead stream").Fate <- wiretap.Forward
	if e := <-done; e == nil || !errors.Is(e, ErrUnavailable) {
		t.Fatalf("the call that met a dead stream: %+v, want unavailable", e)
	}
	if got := r.parkedStreams(); got != 0 {
		t.Errorf("%d streams still parked after one of them proved dead", got)
	}
	go func() { done <- withdraw() }()
	next(t, arrived, "the frame after the refusal").Fate <- wiretap.Forward
	if e := <-done; e == nil || e.Code != CodeBadRequest {
		t.Fatalf("the call after the one refusal: %+v, want it served", e)
	}
	if got := r.tap.Upgrades(); got != streams+1 {
		t.Errorf("%d streams dialed in all, want the %d that died and one more", got, streams+1)
	}
}

// TestStaleParkedStreamIsRedialed: a stream parked past the Client's limit is
// closed and replaced, not written to — the server may already have reaped
// it — and the caller sees nothing of it.
func TestStaleParkedStreamIsRedialed(t *testing.T) {
	r := newTappedAgent(t)
	call := func() {
		t.Helper()
		if e := r.client.Withdraw(WithdrawRequest{WorkerID: "nobody"}).Err; e == nil || e.Code != CodeBadRequest {
			t.Fatalf("%+v, want the server's own not-registered refusal", e)
		}
	}
	call()
	call()
	if got := r.tap.Upgrades(); got != 1 {
		t.Fatalf("%d streams dialed for two sequential calls", got)
	}
	r.client.mu.Lock()
	r.client.parked[0].at = time.Now().Add(-parkLimit - time.Second)
	r.client.mu.Unlock()
	call()
	frames, _ := r.tap.Sent()
	if len(frames) != 3 || r.tap.Upgrades() != 2 {
		t.Errorf("%d frames on %d streams, want the third call alone on a second stream", len(frames), r.tap.Upgrades())
	}
	// The stale one was closed, not abandoned: the server has one left.
	for deadline := time.Now().Add(10 * time.Second); r.srv.AgentSnapshot().Streams != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the server still has %d streams open", r.srv.AgentSnapshot().Streams)
		}
	}
}

// agentTape makes every agent call, refusals of each kind included, and
// returns what it was answered.
func agentTape(s *Server, api API) []any {
	var out []any
	add := func(v any) { out = append(out, v) }
	for w := 0; w < 6; w++ {
		add(api.Register(RegisterRequest{WorkerID: fmt.Sprint("w", w), Code: leaf(s, 7*w), Capacity: w % 2}))
	}
	add(api.Register(RegisterRequest{WorkerID: "w0", Code: leaf(s, 1)}))            // already registered
	add(api.Register(RegisterRequest{WorkerID: "bad", Code: []byte{200, 1}}))       // not a leaf
	add(api.Register(RegisterRequest{WorkerID: "old", Code: leaf(s, 2), Epoch: 9})) // stale epoch
	add(api.Reregister(ReregisterRequest{WorkerID: "w1", Code: leaf(s, 30)}))
	add(api.Reregister(ReregisterRequest{WorkerID: "nobody", Code: leaf(s, 30)}))
	first := api.Submit(TaskRequest{TaskID: "t0", Code: leaf(s, 0)})
	add(first)
	add(api.Submit(TaskRequest{TaskID: "t1", Code: []byte("x")}))
	batch := api.SubmitBatch(TaskBatchRequest{Tasks: []TaskRequest{
		{TaskID: "b0", Code: leaf(s, 14)}, {TaskID: "b1", Code: nil}, {TaskID: "b2", Code: leaf(s, 40), Epoch: 3}, {TaskID: "b3", Code: leaf(s, 63)},
	}})
	add(batch)
	add(api.Release(ReleaseRequest{WorkerID: first.WorkerID}))
	add(api.Release(ReleaseRequest{WorkerID: first.WorkerID})) // not assigned
	add(api.Release(ReleaseRequest{WorkerID: batch.Results[0].WorkerID, Code: leaf(s, 9)}))
	add(api.Withdraw(WithdrawRequest{WorkerID: "w5"}))
	add(api.Withdraw(WithdrawRequest{WorkerID: "w5"}))
	add(api.Withdraw(WithdrawRequest{}))
	for i := 0; i < 8; i++ { // drains the pool: the last are refused for want of workers
		add(api.Submit(TaskRequest{TaskID: fmt.Sprint("d", i), Code: leaf(s, 5*i)}))
	}
	return out
}

// TestRefusedUpgradeStaysOnPOST: a Client whose upgrade is answered with
// anything but a 101 it can write to — a 400 from a hop that drops Upgrade,
// a 101 its own http.Client.Timeout wrapped — asks once, then makes every
// call a POST, and is answered exactly what a Client with streams is.
func TestRefusedUpgradeStaysOnPOST(t *testing.T) {
	framed := newTestServer(t)
	fs := httptest.NewServer(Handler(framed))
	defer fs.Close()
	tr := NewTransport()
	defer tr.CloseIdleConnections()
	fc := &Client{BaseURL: fs.URL, HTTP: &http.Client{Transport: tr}}
	defer fc.Close()
	want := agentTape(framed, fc)
	if snap := framed.AgentSnapshot(); snap.Posts != 0 || snap.Frames != int64(len(want)) {
		t.Fatalf("the framed twin answered %d frames and %d posts for %d calls", snap.Frames, snap.Posts, len(want))
	}

	for _, tc := range []struct {
		name   string
		wrap   func(http.Handler) http.Handler
		client *http.Client
	}{
		{"a 400", withoutUpgrade, &http.Client{Transport: tr}},
		{"a client timeout", func(h http.Handler) http.Handler { return h }, &http.Client{Transport: tr, Timeout: time.Minute}},
	} {
		s := newTestServer(t)
		var upgrades atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == PathStream {
				upgrades.Add(1)
			}
			tc.wrap(Handler(s)).ServeHTTP(w, r)
		}))
		pc := &Client{BaseURL: ts.URL, HTTP: tc.client}
		got := agentTape(s, pc)
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s: call %d answered over POST\n%+v\nover a frame\n%+v", tc.name, i, got[i], want[i])
				}
			}
		}
		if a, b := s.Stats(), framed.Stats(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the POSTed tape left the server at\n%+v\nthe framed one at\n%+v", tc.name, a, b)
		}
		snap := s.AgentSnapshot()
		if !pc.onPOST || upgrades.Load() != 1 || snap.Posts != int64(len(want)) || snap.Frames != 0 {
			t.Errorf("%s: on POST %v after %d upgrade requests, %d posts and %d frames answered; want one request and %d posts",
				tc.name, pc.onPOST, upgrades.Load(), snap.Posts, snap.Frames, len(want))
		}
		s.CloseStreams() // the stream a timeout client's refused 101 opened, if it has not ended yet
		ts.Close()
	}
}

// TestClientSharedByGoroutines: one Client under concurrent callers dials a
// stream per call in flight and no more, parks them all, and every call is
// answered its own answer. Run under -race.
func TestClientSharedByGoroutines(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	tr := NewTransport()
	defer tr.CloseIdleConnections()
	client := &Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: tr}}

	const callers, calls = 8, 60
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprint("w", g)
			for i := 0; i < calls; i++ {
				if resp := client.Register(RegisterRequest{WorkerID: id, Code: leaf(s, g)}); !resp.OK {
					t.Errorf("%s: register %d: %+v", id, i, resp)
					return
				}
				if resp := client.Withdraw(WithdrawRequest{WorkerID: id}); !resp.OK {
					t.Errorf("%s: withdraw %d: %+v", id, i, resp)
					return
				}
			}
		}()
	}
	wg.Wait()
	snap := s.AgentSnapshot()
	if snap.Frames != 2*callers*calls || snap.Streams < 1 || snap.Streams > callers {
		t.Errorf("%d frames on %d streams, want %d on at most %d", snap.Frames, snap.Streams, 2*callers*calls, callers)
	}
	client.mu.Lock()
	parked := len(client.parked)
	client.mu.Unlock()
	if parked != snap.Streams {
		t.Errorf("%d streams parked, %d open at the server", parked, snap.Streams)
	}
	client.Close()
	s.CloseStreams()
	if got := s.AgentSnapshot().Streams; got != 0 {
		t.Errorf("%d streams open after CloseStreams", got)
	}
	if resp := client.Withdraw(WithdrawRequest{WorkerID: "w0"}); resp.Err == nil || !errors.Is(resp.Err, ErrUnavailable) {
		t.Errorf("a call after the server closed its streams: %+v, want unavailable", resp)
	}
}

// TestFramedCycleAllocs pins what a warm submit + release cycle allocates
// over a stream, both ends counted (the test's one process is both): the
// decoded requests and answers — ids, codes, the boxed structs encoding/json
// is handed — and nothing per frame for the transport. A POST per call cost
// 208.
func TestFramedCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins are meaningless under -race: sync.Pool drops Puts")
	}
	s := newTestServer(t)
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	tr := NewTransport()
	defer tr.CloseIdleConnections()
	client := &Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: tr}}
	defer client.Close()
	for w := 0; w < 32; w++ {
		if resp := client.Register(RegisterRequest{WorkerID: fmt.Sprint("worker-", w), Code: leaf(s, 2*w)}); !resp.OK {
			t.Fatal(resp.Reason)
		}
	}
	code, fresh := leaf(s, 11), leaf(s, 12)
	cycle := func() {
		got := client.Submit(TaskRequest{TaskID: "t", Code: code})
		if !got.Assigned {
			t.Fatal(got.Reason)
		}
		if resp := client.Release(ReleaseRequest{WorkerID: got.WorkerID, Code: fresh}); !resp.OK {
			t.Fatal(resp.Reason)
		}
	}
	cycle()
	if perCycle := testing.AllocsPerRun(200, cycle); perCycle > 24 {
		t.Errorf("a warm framed submit + release cycle allocates %.1f, want ≤ 24", perCycle)
	} else {
		t.Logf("a warm framed submit + release cycle allocates %.1f", perCycle)
	}
}

// TestStreamEndpointRefusals: /v1/stream answers anything but its upgrade
// with a typed Error, and a frame that names no agent call with a 400 that
// leaves the stream usable.
func TestStreamEndpointRefusals(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	for _, tc := range []struct {
		method string
		status int
		code   string
	}{{http.MethodGet, http.StatusBadRequest, CodeBadRequest}, {http.MethodPost, http.StatusMethodNotAllowed, CodeMethodNotAllowed}} {
		req, _ := http.NewRequest(tc.method, ts.URL+PathStream, nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e Error
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.status || err != nil || e.Code != tc.code {
			t.Errorf("%s %s without the upgrade: %s, %+v (%v)", tc.method, PathStream, resp.Status, e, err)
		}
	}

	tr := NewTransport()
	defer tr.CloseIdleConnections()
	client := &Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: tr}}
	defer client.Close()
	stream, err := client.stream()
	if err != nil || stream == nil {
		t.Fatal(stream, err)
	}
	defer stream.Close()
	for _, payload := range [][]byte{nil, {0}, {byte(kindRotate), '{', '}'}, {200}} {
		answer, err := stream.Exchange(10*time.Second, maxResponseBytes, func(dst []byte) []byte { return append(dst, payload...) })
		if err != nil || len(answer) < answerHeader {
			t.Fatalf("payload %v: %v", payload, err)
		}
		var e Error
		status := int(binary.BigEndian.Uint16(answer))
		if err := json.Unmarshal(answer[answerHeader:], &e); err != nil || status != http.StatusBadRequest || e.Code != CodeBadRequest {
			t.Errorf("payload %v answered %d %s", payload, status, answer[answerHeader:])
		}
	}
	if st := s.Stats(); st.Rotations != 0 {
		t.Error("a frame rotated the server: rotations are POSTs only")
	}
	answer, err := stream.Exchange(10*time.Second, maxResponseBytes, func(dst []byte) []byte {
		return append(append(dst, byte(KindWithdraw)), `{"worker_id":"nobody"}`...)
	})
	if err != nil || int(binary.BigEndian.Uint16(answer)) != http.StatusOK {
		t.Errorf("the call after four refused frames: %q, %v", answer, err)
	}
}
