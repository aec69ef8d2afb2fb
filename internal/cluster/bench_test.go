package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/wire"
)

// BenchmarkNodeOp prices one sequential routed op. Adjacent rows subtract to
// a layer's cost:
//
//   - stream: insert and pop alternating through DialNodeClient
//     against a NodeHandler over loopback — the routed path, every op a
//     singleton envelope in a frame on the one stream a sequential caller
//     needs; the pair keeps the pool at steady state.
//   - stream-floor: the same two request sizes as frames over an upgraded
//     connection to a loop that discards each and answers the same two
//     response sizes. stream − stream-floor is this package's routed-op path
//     (coalescer, envelope codec, replay cache, engine call, watchdog) above
//     the connection.
//   - post-floor: the same bytes as plain POSTs through the same transport to
//     a handler that discards the body — what an HTTP transaction charges,
//     which every op paid before the stream. post-floor − stream-floor is
//     what the stream saves.
//   - peek, status: a greedy election's poll and the pool read, each a
//     singleton envelope on the same stream, over a node of 2,000 workers.
//     Status was a POST of its own, as was peek's forerunner min-id
//     (CHANGES.md, PR 27, has them side by side).
func BenchmarkNodeOp(b *testing.B) {
	tree := buildTree(b, 7)
	code := tree.CodeOf(3)
	// Same-size stand-ins for the two envelopes and their answers; the
	// floors ship bytes, not meaning.
	var reqs, resps [2][]byte
	for i, op := range []OpRequest{
		{Kind: OpInsert, Idem: "AbCdEf1a2b", Code: []byte(code), ID: 12345, Capacity: 1, Epoch: engine.FirstEpoch},
		{Kind: OpPop, Idem: "AbCdEf1a2b", Code: []byte(code), Level: tree.Depth() - 1, Epoch: engine.FirstEpoch},
	} {
		body, err := json.Marshal(struct {
			Ops []OpRequest `json:"ops"`
		}{[]OpRequest{op}})
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = append(body, '\n')
	}
	resps[0] = []byte(`{"ok":true,"results":[{"ok":true}]}` + "\n")
	resps[1] = []byte(`{"ok":true,"results":[{"ok":true,"id":12345,"found":true}]}` + "\n")

	codeBytes := []byte(code) // once: a conversion a call is an allocation a call
	insert := func(idem string) OpRequest {
		return OpRequest{Kind: OpInsert, Idem: idem, Code: codeBytes, ID: 12345, Capacity: 1, Epoch: engine.FirstEpoch}
	}

	// dial is a connection to a fresh node holding so many workers.
	dial := func(b *testing.B, workers int) NodeConn {
		ts := httptest.NewServer(NodeHandler(NewNode()))
		b.Cleanup(ts.Close)
		tr := platform.NewTransport()
		b.Cleanup(tr.CloseIdleConnections)
		conn := DialNodeClient(ts.URL, &http.Client{Transport: tr})
		if err := conn.Init(InitRequest{Tree: tree}); err != nil {
			b.Fatal(err)
		}
		for id := 0; id < workers; id++ {
			if _, err := conn.Do(OpRequest{Kind: OpInsert, Code: []byte(tree.CodeOf(id % tree.NumPoints())), ID: id, Capacity: 1}); err != nil {
				b.Fatal(err)
			}
		}
		return conn
	}

	b.Run("stream", func(b *testing.B) {
		conn := dial(b, 0)
		idems := make([]string, b.N)
		for i := range idems {
			idems[i] = "AbCdEf" + strconv.FormatInt(int64(i), 36)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				if _, err := conn.Do(insert(idems[i])); err != nil {
					b.Fatal(err)
				}
			} else if res, err := conn.Do(OpRequest{Kind: OpPop, Idem: idems[i], Code: codeBytes, Level: tree.Depth() - 1, Epoch: engine.FirstEpoch}); err != nil || !res.Found {
				b.Fatal(res, err)
			}
		}
	})

	b.Run("peek", func(b *testing.B) {
		conn := dial(b, 2000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err := conn.Do(OpRequest{Kind: OpPeek, Code: codeBytes, Epoch: engine.FirstEpoch}); err != nil || !res.Found || res.ID != 3 || res.Level != 0 {
				b.Fatal(res, err)
			}
		}
	})
	b.Run("status", func(b *testing.B) {
		conn := dial(b, 2000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st, err := conn.Do(OpRequest{Kind: OpStatus, Epoch: engine.FirstEpoch}); err != nil || st.Len != 2000 {
				b.Fatal(st, err)
			}
		}
	})
	b.Run("stream-floor", func(b *testing.B) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			conn, brw, err := http.NewResponseController(w).Hijack()
			if err != nil {
				b.Error(err)
				return
			}
			defer conn.Close()
			io.WriteString(conn, wire.SwitchingProtocols(opsProtocol))
			var in, out []byte
			for {
				if in, err = wire.ReadFrame(brw.Reader, in, maxFrame); err != nil {
					return
				}
				resp := resps[0]
				if len(in) == len(reqs[1]) {
					resp = resps[1]
				}
				out = wire.AppendFrame(out[:0], func(dst []byte) []byte { return append(dst, resp...) })
				if _, err := conn.Write(out); err != nil {
					return
				}
			}
		}))
		defer ts.Close()
		tr := platform.NewTransport()
		defer tr.CloseIdleConnections()
		// The connection's own dial; from there on bare frames.
		s, err := newHTTPNode(ts.URL, &http.Client{Transport: tr}, NodeTimeouts{}).dialOps(DefaultOpTimeout)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Exchange(DefaultOpTimeout, maxFrame, func(dst []byte) []byte { return append(dst, reqs[i%2]...) }); err != nil {
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
			h := w.Header()
			h.Set("Content-Type", "application/json")
			h.Set("Content-Length", strconv.Itoa(len(resp)))
			w.Write(resp)
		}))
		defer ts.Close()
		tr := platform.NewTransport()
		defer tr.CloseIdleConnections()
		hc := &http.Client{Transport: tr}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req, err := http.NewRequest(http.MethodPost, ts.URL+PathNodeOps, bytes.NewReader(reqs[i%2]))
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

// BenchmarkCoordinatorCycle prices one Submit → Release cycle through a
// coordinator (New) over three NodeHandler backends on loopback, called
// in-process on its platform.Server by so many concurrent clients — the
// coordinator half of the benchmark's cluster-lifecycle workload without
// its agent-facing HTTP. Each client holds at most one worker busy, so the
// 1,024-worker pool never runs dry. Run it with -mutexprofile or
// -blockprofile to see what one client's node round trip makes another wait
// for: the server holds its lock across the core call in Release.
func BenchmarkCoordinatorCycle(b *testing.B) {
	const workers = 1024
	for _, clients := range []int{1, 2} {
		b.Run("clients="+strconv.Itoa(clients), func(b *testing.B) {
			nodes := make([]NodeConn, 3)
			for i := range nodes {
				ts := httptest.NewServer(NodeHandler(NewNode()))
				b.Cleanup(ts.Close)
				tr := platform.NewTransport()
				b.Cleanup(tr.CloseIdleConnections)
				nodes[i] = DialNodeClient(ts.URL, &http.Client{Transport: tr})
			}
			coord, err := New(Config{Region: testRegion, Cols: 8, Rows: 8, Epsilon: 0.6, Seed: 7, Nodes: nodes})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(coord.Close)
			srv := coord.Server()
			tree := srv.Publication().Tree
			for id := 0; id < workers; id++ {
				code := []byte(tree.CodeOf(id % tree.NumPoints()))
				if r := srv.Register(platform.RegisterRequest{WorkerID: "w" + strconv.Itoa(id), Code: code}); !r.OK {
					b.Fatal(r.Reason)
				}
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := c; i < b.N; i += clients {
						code := []byte(tree.CodeOf(i % tree.NumPoints()))
						got := srv.Submit(platform.TaskRequest{Code: code})
						if !got.Assigned {
							b.Error(got.Reason)
							return
						}
						if r := srv.Release(platform.ReleaseRequest{WorkerID: got.WorkerID}); !r.OK {
							b.Error(r.Reason)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
