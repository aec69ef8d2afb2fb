package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/wire"
)

// BenchmarkLoopbackSubmit measures one full client->server Submit round
// trip over loopback HTTP — the per-op cost under the repository
// benchmark's serve-lifecycle task_p50_us.
func BenchmarkLoopbackSubmit(b *testing.B) {
	s := newTestServer(b)
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	client, err := NewClient(ts.URL)
	if err != nil {
		b.Fatal(err)
	}
	o, err := NewObfuscator(client.Publication(), 11)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(17)
	for i := 0; i < 4096; i++ {
		w := Worker{ID: fmt.Sprintf("w%d", i), Loc: geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))}
		if err := w.Register(s, o); err != nil {
			b.Fatal(err)
		}
	}
	code := []byte(o.Obfuscate(geo.Pt(100, 100)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client.Submit(TaskRequest{TaskID: "t", Code: code})
	}
}

// BenchmarkAgentOp prices one sequential agent call: a submit and the release
// of the worker it was assigned, alternating, so the pool stays at steady
// state. Adjacent rows subtract to a layer's cost:
//
//   - stream: through a Client whose calls are frames on /v1/stream — what an
//     agent pays.
//   - post: the same calls, each a POST to its path through the Client's POST
//     half — what curl or any client without the upgrade is served. post −
//     stream is what the stream saves.
//   - stream-floor: a submit's and a release's request bytes as frames over an
//     upgraded connection to a loop that discards each and answers the
//     matching answer's bytes. stream − stream-floor is this package above
//     the connection: both codecs, answer, the Server call, the park.
//   - post-floor: the same bytes as plain POSTs through the same transport to
//     a handler that discards the body — what an HTTP transaction charges.
//     post-floor − stream-floor is the transport's share of post − stream.
func BenchmarkAgentOp(b *testing.B) {
	const workers = 4096
	load := func(b *testing.B) (*Server, []byte) {
		s := newTestServer(b)
		o, err := NewObfuscator(s.Publication(), 11)
		if err != nil {
			b.Fatal(err)
		}
		src := rng.New(17)
		for i := 0; i < workers; i++ {
			w := Worker{ID: fmt.Sprintf("w%d", i), Loc: geo.Pt(src.Uniform(0, 200), src.Uniform(0, 200))}
			if err := w.Register(s, o); err != nil {
				b.Fatal(err)
			}
		}
		return s, []byte(o.Obfuscate(geo.Pt(100, 100)))
	}
	cycle := func(b *testing.B, client API, code []byte) {
		b.ReportAllocs()
		b.ResetTimer()
		var held string
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				resp := client.Submit(TaskRequest{TaskID: "t", Code: code})
				if !resp.Assigned {
					b.Fatal(resp.Reason)
				}
				held = resp.WorkerID
			} else if resp := client.Release(ReleaseRequest{WorkerID: held, Code: code}); !resp.OK {
				b.Fatal(resp.Reason)
			}
		}
	}
	b.Run("stream", func(b *testing.B) {
		s, code := load(b)
		ts := httptest.NewServer(Handler(s))
		defer ts.Close()
		tr := NewTransport()
		defer tr.CloseIdleConnections()
		client := &Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: tr}}
		defer client.Close()
		cycle(b, client, code)
	})
	b.Run("post", func(b *testing.B) {
		s, code := load(b)
		ts := httptest.NewServer(Handler(s))
		defer ts.Close()
		tr := NewTransport()
		defer tr.CloseIdleConnections()
		cycle(b, poster{&Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: tr}}, b}, code)
	})

	// Same-size stand-ins for the two calls and their answers; the floors
	// ship bytes, not meaning.
	code := bytes.Repeat([]byte{1}, 6)
	var reqs, resps [2][]byte
	for i, v := range []any{
		TaskRequest{TaskID: "t", Code: code}, ReleaseRequest{WorkerID: "w1234", Code: code},
	} {
		reqs[i], _ = json.Marshal(v)
		reqs[i] = append(reqs[i], '\n')
	}
	for i, v := range []any{TaskResponse{Assigned: true, WorkerID: "w1234", Epoch: 1}, RegisterResponse{OK: true, Epoch: 1}} {
		resps[i], _ = json.Marshal(v)
		resps[i] = append(resps[i], '\n')
	}
	b.Run("stream-floor", func(b *testing.B) {
		var streams wire.Streams
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			err := streams.Serve(w, agentProtocol, maxRequestBytes, streamIdleLimit, func(in, out []byte) []byte {
				if len(in) == 1+len(reqs[1]) {
					return append(append(out, 0, 200), resps[1]...)
				}
				return append(append(out, 0, 200), resps[0]...)
			}, nil)
			if err != nil {
				b.Error(err)
			}
		}))
		defer ts.Close()
		defer streams.Close()
		tr := NewTransport()
		defer tr.CloseIdleConnections()
		upgrade, err := wire.UpgradeRequest(http.MethodGet, ts.URL+PathStream, agentProtocol)
		if err != nil {
			b.Fatal(err)
		}
		s, err := wire.Dial(&http.Client{Transport: tr}, upgrade, exchangeLimit)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, err := s.Exchange(exchangeLimit, maxResponseBytes, func(dst []byte) []byte {
				return append(append(dst, byte(KindTask)), reqs[i%2]...)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("post-floor", func(b *testing.B) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n, _ := io.Copy(io.Discard, r.Body)
			resp := resps[0]
			if int(n) == len(reqs[1]) {
				resp = resps[1]
			}
			writeBody(w, http.StatusOK, resp)
		}))
		defer ts.Close()
		tr := NewTransport()
		defer tr.CloseIdleConnections()
		hc := &http.Client{Transport: tr}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req, err := http.NewRequest(http.MethodPost, ts.URL+PathTask, bytes.NewReader(reqs[i%2]))
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := hc.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
		}
	})
}
