package platform

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"slices"
	"sync"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/wire"
	"github.com/pombm/pombm/internal/wiretap"
)

// traceTransport counts connection handouts via httptrace so tests can
// assert keep-alive reuse instead of inferring it from timing.
type traceTransport struct {
	rt http.RoundTripper

	mu     sync.Mutex
	total  int
	reused int
}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	trace := &httptrace.ClientTrace{
		GotConn: func(ci httptrace.GotConnInfo) {
			t.mu.Lock()
			t.total++
			if ci.Reused {
				t.reused++
			}
			t.mu.Unlock()
		},
	}
	return t.rt.RoundTrip(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
}

func (t *traceTransport) counts() (total, reused int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total, t.reused
}

// withoutUpgrade serves h behind what a forward proxy leaves of an upgrade
// request: the hop-by-hop headers are gone, so /v1/stream answers 400 and a
// Client stays on POST.
func withoutUpgrade(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Upgrade")
		r.Header.Del("Connection")
		h.ServeHTTP(w, r)
	})
}

// TestConnectionReuse pins the keep-alive contract of the serving path:
// after the first call warms a connection, every subsequent sequential call
// must ride the same one. On the POST path (a Client whose upgrade was
// refused) that is per request, and regressed before because the client
// decoded responses with json.Decoder, which leaves the encoder's trailing
// newline unread — net/http then refuses to reuse the connection and every
// op pays a fresh TCP handshake. On the stream path it is per frame: every
// agent call leaves as one frame on the one stream the first call dialed.
func TestConnectionReuse(t *testing.T) {
	drive := func(t *testing.T, client *Client) {
		o, err := NewObfuscator(client.Publication(), 11)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(17)
		for i := 0; i < 8; i++ {
			w := Worker{ID: fmt.Sprintf("w%d", i), Loc: geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))}
			if err := w.Register(client, o); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			task := Task{ID: fmt.Sprintf("t%d", i), Loc: geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))}
			if _, _, err := task.Submit(client, o); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := client.Stats(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("post", func(t *testing.T) {
		ts := httptest.NewServer(withoutUpgrade(Handler(newTestServer(t))))
		defer ts.Close()
		client, err := NewClient(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		// Swap in a private traced transport so this test observes its own
		// connection pool, not the process-wide shared one.
		tt := &traceTransport{rt: NewTransport()}
		client.HTTP = &http.Client{Transport: tt}
		drive(t, client)

		total, reused := tt.counts()
		if total < 17 {
			t.Fatalf("traced %d requests, expected at least 17", total)
		}
		if reused < total-1 {
			t.Errorf("connection reused on %d of %d requests, want all but the first", reused, total)
		}
	})

	t.Run("stream", func(t *testing.T) {
		ts := httptest.NewServer(Handler(newTestServer(t)))
		defer ts.Close()
		client, err := NewClient(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		var tap *wiretap.Tap
		tap, client.HTTP = wiretap.New(t, NewTransport())
		drive(t, client)

		frames, requests := tap.Sent()
		if len(frames) != 16 || tap.Upgrades() != 1 {
			t.Errorf("%d frames on %d streams, want the 16 calls on the one stream the first dialed", len(frames), tap.Upgrades())
		}
		if want := []string{PathStream, PathStats}; !slices.Equal(requests, want) {
			t.Errorf("HTTP requests sent: %v, want %v", requests, want)
		}
	})
}

// TestErrorResponsesKeepConnectionAlive extends the reuse pin to the error
// path: a structured-error response (unknown worker) must also be drained
// so the connection survives for the next request, and as a frame's answer
// leaves the stream usable for the next frame.
func TestErrorResponsesKeepConnectionAlive(t *testing.T) {
	drive := func(t *testing.T, client *Client) {
		for i := 0; i < 6; i++ {
			if resp := client.Withdraw(WithdrawRequest{WorkerID: "nobody"}); resp.OK {
				t.Fatal("withdraw of unknown worker succeeded")
			}
		}
	}

	t.Run("post", func(t *testing.T) {
		ts := httptest.NewServer(withoutUpgrade(Handler(newTestServer(t))))
		defer ts.Close()
		client, err := NewClient(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		tt := &traceTransport{rt: NewTransport()}
		client.HTTP = &http.Client{Transport: tt}
		drive(t, client)

		total, reused := tt.counts()
		if total != 7 {
			t.Fatalf("traced %d requests, want the refused upgrade and 6 calls", total)
		}
		if reused < total-1 {
			t.Errorf("error responses broke keep-alive: reused %d of %d", reused, total)
		}
	})

	t.Run("stream", func(t *testing.T) {
		ts := httptest.NewServer(Handler(newTestServer(t)))
		defer ts.Close()
		client, err := NewClient(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		var tap *wiretap.Tap
		tap, client.HTTP = wiretap.New(t, NewTransport())
		drive(t, client)

		if frames, _ := tap.Sent(); len(frames) != 6 || tap.Upgrades() != 1 {
			t.Errorf("%d frames on %d streams, want the 6 refused calls on one stream", len(frames), tap.Upgrades())
		}
	})
}

// nopResponseWriter is the cheapest possible sink for alloc pins: header
// reused across runs, writes discarded.
type nopResponseWriter struct{ h http.Header }

func (w nopResponseWriter) Header() http.Header         { return w.h }
func (w nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w nopResponseWriter) WriteHeader(int)             {}

// nopBody adapts a reusable bytes.Reader into an io.ReadCloser so the
// decode pin can replay the same request body without allocating one.
type nopBody struct{ *bytes.Reader }

func (nopBody) Close() error { return nil }

// TestServingCodecAllocs pins the steady-state allocation budget of the
// pooled wire codecs at ≤ 2 allocs/op. The two allowed allocations are
// inherent, not scratch: the Content-Length header value on encode, and
// the decoded TaskID string + Code slice on decode. Scratch buffers,
// encoders, and readers must all come from the pool.
func TestServingCodecAllocs(t *testing.T) {
	if raceEnabled {
		// The race detector makes sync.Pool drop a share of Puts on purpose,
		// so pooled scratch shows up as allocations that a normal build does
		// not make; the budget is pinned by the non-race lane.
		t.Skip("alloc pins are meaningless under -race: sync.Pool drops Puts")
	}
	resp := &TaskResponse{Assigned: true, WorkerID: "w-12345", Epoch: 3}
	w := nopResponseWriter{h: http.Header{}}
	encN := testing.AllocsPerRun(200, func() {
		writeJSON(w, resp)
	})
	t.Logf("writeJSON(TaskResponse): %.2f allocs/op", encN)
	if encN > 2 {
		t.Errorf("writeJSON allocates %.2f/op, budget is 2", encN)
	}

	payload := []byte(`{"task_id":"t-9999","code":"AAECAwQFBgc=","epoch":4}` + "\n")
	rd := &bytes.Reader{}
	req := &http.Request{
		Method: http.MethodPost,
		Header: http.Header{"Content-Type": []string{"application/json"}},
		Body:   nopBody{rd},
	}
	var task TaskRequest
	decN := testing.AllocsPerRun(200, func() {
		rd.Reset(payload)
		cb := readBody(w, req)
		if cb == nil || cb.Unmarshal(&task) != nil {
			t.Fatal("reading the request failed")
		}
		wire.Put(cb)
	})
	t.Logf("readBody + Unmarshal(TaskRequest): %.2f allocs/op", decN)
	if decN > 2 {
		t.Errorf("reading a request allocates %.2f/op, budget is 2", decN)
	}

	treq := &TaskRequest{TaskID: "t-1", Code: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	postN := testing.AllocsPerRun(200, func() {
		cb := wire.Get()
		if err := cb.Encode(treq); err != nil {
			t.Fatal(err)
		}
		_ = cb.Reader()
		wire.Put(cb)
	})
	t.Logf("client post encode(TaskRequest): %.2f allocs/op", postN)
	if postN > 2 {
		t.Errorf("client post encode allocates %.2f/op, budget is 2", postN)
	}
}
