package wire

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

const testProtocol = "wire-test/1"

// echoServer upgrades every request and answers each frame with its own
// payload, counting the answers written. Its cleanup ends every stream and
// waits out every Serve, so no test leaves one behind for the next to count.
func echoServer(t *testing.T, streams *Streams, wrote *atomic.Int64) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		err := streams.Serve(w, testProtocol, 1<<10, time.Minute,
			func(in, out []byte) []byte { return append(out, in...) },
			func() { wrote.Add(1) })
		if err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(func() {
		ts.Close()
		streams.Close()
		waitServeReturned(t)
	})
	return ts
}

// waitServeReturned waits until no goroutine is inside Serve. Streams.Close
// waits for every Serve to let go of its connection; the return from Serve
// is a few instructions behind that.
func waitServeReturned(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); servingGoroutines() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still in Serve after Close", servingGoroutines())
		}
	}
}

func dialEcho(t *testing.T, ts *httptest.Server) (*Stream, error) {
	t.Helper()
	upgrade, err := UpgradeRequest(http.MethodGet, ts.URL, testProtocol)
	if err != nil {
		t.Fatal(err)
	}
	return Dial(ts.Client(), upgrade, 10*time.Second)
}

// TestStreamExchange: frames go out and come back in order on one
// connection, wrote runs once per answer, and a frame past the serving end's
// limit ends the stream.
func TestStreamExchange(t *testing.T) {
	var (
		streams Streams
		wrote   atomic.Int64
	)
	ts := echoServer(t, &streams, &wrote)
	s, err := dialEcho(t, ts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, payload := range []string{"a", "", "the third frame"} {
		got, err := s.Exchange(10*time.Second, 1<<10, func(dst []byte) []byte { return append(dst, payload...) })
		if err != nil || string(got) != payload {
			t.Fatalf("exchanged %q: %q, %v", payload, got, err)
		}
	}
	if _, err := s.Exchange(10*time.Second, 4, func(dst []byte) []byte { return append(dst, "longer than four"...) }); err == nil {
		t.Error("an answer past the caller's limit was read")
	}
	// The third answer's wrote ran before the serving end waited for the
	// fourth frame, which it has answered by now.
	if n := wrote.Load(); n < 3 {
		t.Errorf("wrote ran %d times for three answers read", n)
	}
	s2, err := dialEcho(t, ts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Exchange(10*time.Second, 1<<20, func(dst []byte) []byte { return append(dst, make([]byte, 1<<10+1)...) }); err == nil {
		t.Error("a frame past the serving end's limit was answered")
	}
}

// TestCloseEndsServing: Close is what ends upgraded connections — no
// http.Server method sees them. It closes every one, returns once the
// handler goroutines serving them have, and a later upgrade is refused.
func TestCloseEndsServing(t *testing.T) {
	var (
		streams Streams
		wrote   atomic.Int64
	)
	ts := echoServer(t, &streams, &wrote)
	ts.Client().Transport.(*http.Transport).DisableKeepAlives = true
	const n = 8
	var open []*Stream
	for i := 0; i < n; i++ {
		s, err := dialEcho(t, ts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Exchange(10*time.Second, 1<<10, func(dst []byte) []byte { return append(dst, 'x') }); err != nil {
			t.Fatal(err)
		}
		open = append(open, s)
	}
	if got := streams.Open(); got != n {
		t.Fatalf("%d streams open, want %d", got, n)
	}
	if got := servingGoroutines(); got != n {
		t.Fatalf("%d goroutines in Serve with %d streams open", got, n)
	}
	streams.Close()
	if got := streams.Open(); got != 0 {
		t.Errorf("%d streams open after Close", got)
	}
	waitServeReturned(t)
	for _, s := range open {
		if _, err := s.Exchange(time.Second, 1<<10, func(dst []byte) []byte { return append(dst, 'x') }); err == nil {
			t.Error("a closed stream answered")
		}
	}
	if s, err := dialEcho(t, ts); err == nil {
		s.Close()
		t.Error("an upgrade after Close was served")
	}
}

// servingGoroutines counts the goroutines inside Streams.Serve. A dump
// that fills the buffer was cut short and would under-count, so the buffer
// doubles until runtime.Stack returns less than its length.
func servingGoroutines() int {
	stacks := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(stacks, true); n < len(stacks) {
			return bytes.Count(stacks[:n], []byte("(*Streams).Serve("))
		}
		stacks = make([]byte, 2*len(stacks))
	}
}

// TestDialRefusal tells the two ways an upgrade fails apart: answered with
// something else is a refusal that names the answer, not answered at all is
// the failure to reach the peer.
func TestDialRefusal(t *testing.T) {
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	if _, err := dialEcho(t, plain); err == nil || !strings.Contains(err.Error(), "upgrade refused: the "+testProtocol+" upgrade was answered 200 OK") {
		t.Errorf("an upgrade answered 200: %v, want a refusal naming the 200", err)
	}
	plain.Close()
	if _, err := dialEcho(t, plain); err == nil || strings.Contains(err.Error(), "upgrade refused") {
		t.Errorf("an upgrade nobody answered: %v, want a failure to reach the peer, not a refusal", err)
	}
}
