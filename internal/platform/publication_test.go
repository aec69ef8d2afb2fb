package platform

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/rng"
	"github.com/pombm/pombm/internal/wire"
	"github.com/pombm/pombm/internal/workload"
)

// benchSideServer is a server on the repository benchmark's 64×64 tree:
// its region, grid, ε and seed.
func benchSideServer(tb testing.TB) *Server {
	tb.Helper()
	s, err := NewServer(workload.SyntheticRegion, 64, 64, workload.DefaultEpsilon, 7)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// publicationBefore is the reference /v1/publication body: json.Encoder's
// bytes of the flattened publication, the tree written by encoding/json as
// its Published form.
func publicationBefore(t *testing.T, pub Publication) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(struct {
		Tree    *hst.Published `json:"tree"`
		MinX    float64        `json:"min_x"`
		MinY    float64        `json:"min_y"`
		MaxX    float64        `json:"max_x"`
		MaxY    float64        `json:"max_y"`
		Cols    int            `json:"cols"`
		Rows    int            `json:"rows"`
		Epsilon float64        `json:"epsilon"`
		Epoch   int64          `json:"epoch,omitempty"`
	}{pub.Tree.Publish(), pub.Region.MinX, pub.Region.MinY, pub.Region.MaxX, pub.Region.MaxY, pub.Cols, pub.Rows, pub.Epsilon, pub.Epoch}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// getPublication GETs /v1/publication from h, checks the answer is the
// publication's body as encoding/json wrote it, and returns what a client
// scans of it.
func getPublication(t *testing.T, h http.Handler, pub Publication) *wirePublication {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, PathPublication, nil))
	body, want := rec.Body.Bytes(), publicationBefore(t, pub)
	if rec.Code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("GET %s: %d, %d bytes; want 200 and the %d bytes writeJSON wrote", PathPublication, rec.Code, len(body), len(want))
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
		t.Fatalf("Content-Length %s, want %d", got, len(want))
	}
	var wp wirePublication
	if err := wp.scanJSON(body); err != nil {
		t.Fatalf("the scanner refuses the served publication: %v", err)
	}
	if !bytes.Equal(wp.Tree.AppendJSON(nil), pub.Tree.AppendJSON(nil)) || wp.Epoch != pub.Epoch {
		t.Fatalf("scanned epoch %d and a tree other than the served one (epoch %d)", wp.Epoch, pub.Epoch)
	}
	return &wp
}

// TestPublicationBody pins /v1/publication's body to what encoding/json
// wrote of it, on the test tree and the benchmark's.
func TestPublicationBody(t *testing.T) {
	for _, s := range []*Server{newTestServer(t), benchSideServer(t)} {
		getPublication(t, Handler(s), s.Publication())
	}
}

// TestPublicationAfterRotate pins that a GET after a rotation carries the
// new epoch and tree.
func TestPublicationAfterRotate(t *testing.T) {
	s := newTestServer(t)
	registerN(t, s, 5)
	h := Handler(s)
	before := s.Publication()
	getPublication(t, h, before)
	if r := s.RotateNow(PrepareRotateRequest{Seed: 77}, nil, rotReporter(rng.New(5))); !r.OK {
		t.Fatal(r.Reason)
	}
	after := s.Publication()
	if after.Epoch != 2 || after.Tree == before.Tree {
		t.Fatalf("rotation left epoch %d and the same tree", after.Epoch)
	}
	for range 2 {
		if wp := getPublication(t, h, after); wp.Epoch != 2 {
			t.Fatalf("GET after the rotation carries epoch %d", wp.Epoch)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing of a body, so that
// what a GET allocates is the handler's alone.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w discardWriter) WriteHeader(int)             {}

// TestPublicationGetAllocs pins that a GET allocates the same at 8×8 as at
// 64×64: the encoder writes into pooled scratch and allocates nothing that
// grows with the tree.
func TestPublicationGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins are meaningless under -race: the detector's instrumentation allocates")
	}
	var allocs [2]float64
	for i, s := range []*Server{newTestServer(t), benchSideServer(t)} {
		h, w := Handler(s), discardWriter{h: http.Header{}}
		req := httptest.NewRequest(http.MethodGet, PathPublication, nil)
		h.ServeHTTP(w, req) // grows the pooled scratch to the document
		allocs[i] = testing.AllocsPerRun(100, func() {
			clear(w.h)
			h.ServeHTTP(w, req)
		})
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("a GET allocates %v times at 8×8 and %v at 64×64", allocs[0], allocs[1])
	}
}

// BenchmarkPublication prices the publication on the benchmark's 64×64
// tree: encode writes the flattened publication as the server answers a
// GET, decode reads it as a client does, and fetch is
// NewClient against a live server — one GET and one decode.
func BenchmarkPublication(b *testing.B) {
	s := benchSideServer(b)
	pub := s.Publication()
	wp := &wirePublication{Tree: pub.Tree, MinX: pub.Region.MinX, MinY: pub.Region.MinY, MaxX: pub.Region.MaxX,
		MaxY: pub.Region.MaxY, Cols: pub.Cols, Rows: pub.Rows, Epsilon: pub.Epsilon, Epoch: pub.Epoch}
	buf := wire.Get()
	defer wire.Put(buf)
	if err := encodeJSON(buf, wp); err != nil {
		b.Fatal(err)
	}
	doc := bytes.Clone(buf.Bytes())
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := encodeJSON(buf, wp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := decodeJSON(buf, doc, new(wirePublication)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fetch", func(b *testing.B) {
		ts := httptest.NewServer(Handler(s))
		defer ts.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewClient(ts.URL); err != nil {
				b.Fatal(err)
			}
		}
	})
}
