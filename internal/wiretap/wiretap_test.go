package wiretap

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pombm/pombm/internal/wire"
)

const (
	testProtocol = "wiretap-test/1"
	testLimit    = 1 << 10
)

// echo is the server under the tap: a POST is answered with its body, an
// upgrade becomes a frame stream that answers each frame with "re:" and its
// payload. served counts the frames that reached it.
type echo struct {
	streams wire.Streams
	served  atomic.Int32
}

func (e *echo) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") == testProtocol {
		err := e.streams.Serve(w, testProtocol, testLimit, time.Minute, func(in, out []byte) []byte {
			e.served.Add(1)
			return append(append(out, "re:"...), in...)
		}, nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	io.Copy(w, r.Body)
}

// rig is an echo server and a tapped client of it.
type rig struct {
	t       *testing.T
	srv     *echo
	url     string
	tap     *Tap
	hc      *http.Client
	upgrade *http.Request
}

func newRig(t *testing.T, serve func(testing.TB, http.Handler) string) *rig {
	r := &rig{t: t, srv: &echo{}}
	r.url = serve(t, r.srv)
	t.Cleanup(r.srv.streams.Close)
	r.tap, r.hc = New(t, &http.Transport{})
	var err error
	if r.upgrade, err = wire.UpgradeRequest(http.MethodPost, r.url+"/stream", testProtocol); err != nil {
		t.Fatal(err)
	}
	return r
}

func plainServer(t testing.TB, h http.Handler) string {
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

func (r *rig) dial() *wire.Stream {
	r.t.Helper()
	s, err := wire.Dial(r.hc, r.upgrade, 10*time.Second)
	if err != nil {
		r.t.Fatal(err)
	}
	return s
}

func (r *rig) post(body string) string {
	r.t.Helper()
	resp, err := r.hc.Post(r.url+"/post", "text/plain", strings.NewReader(body))
	if err != nil {
		r.t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		r.t.Fatal(err)
	}
	return string(got)
}

func exchange(s *wire.Stream, d time.Duration, payload string) (string, error) {
	answer, err := s.Exchange(d, testLimit, func(dst []byte) []byte { return append(dst, payload...) })
	return string(answer), err
}

// TestTapLogsWhatLeaves: without parking the tap only watches — every HTTP
// request by path, upgrades included and counted, and every frame with the
// answer read for it — and SetDelay holds each frame that long.
func TestTapLogsWhatLeaves(t *testing.T) {
	r := newRig(t, plainServer)
	if got := r.post("hello"); got != "hello" {
		t.Fatalf("POST echoed %q", got)
	}
	s := r.dial()
	defer s.Close()
	if got, err := exchange(s, time.Second, "one"); err != nil || got != "re:one" {
		t.Fatalf("exchange answered %q, %v", got, err)
	}
	const delay = 30 * time.Millisecond
	r.tap.SetDelay(delay)
	began := time.Now()
	if got, err := exchange(s, time.Second, "two"); err != nil || got != "re:two" {
		t.Fatalf("delayed exchange answered %q, %v", got, err)
	}
	if took := time.Since(began); took < delay {
		t.Errorf("a frame under a %v delay was answered in %v", delay, took)
	}

	frames, requests := r.tap.Sent()
	if want := []string{"/post", "/stream"}; len(requests) != 2 || requests[0] != want[0] || requests[1] != want[1] {
		t.Errorf("requests logged %v, want %v", requests, want)
	}
	if r.tap.Upgrades() != 1 {
		t.Errorf("%d upgrades counted, want 1", r.tap.Upgrades())
	}
	if len(frames) != 2 {
		t.Fatalf("%d frames logged, want 2", len(frames))
	}
	for i, want := range []string{"one", "two"} {
		if f := frames[i]; string(f.Payload) != want || string(r.tap.AnswerOf(f)) != "re:"+want || !strings.HasPrefix(r.url, "http://"+f.Node) {
			t.Errorf("frame %d: payload %q answered %q bound for %s, want %q answered %q bound for %s",
				i, f.Payload, r.tap.AnswerOf(f), f.Node, want, "re:"+want, r.url)
		}
	}
}

// TestTapFates: while parking, every frame waits on the channel for its
// fate, and each fate is what it says — forward: answered; fail: the write
// fails and the server never sees the frame; cut: the server serves it and
// the tap keeps the answer the client never reads; stall: nothing happens
// until the stream's own deadline closes it. An HTTP request is never held.
func TestTapFates(t *testing.T) {
	r := newRig(t, plainServer)
	arrived := r.tap.Park()
	if got := r.post("not a frame"); got != "not a frame" {
		t.Fatalf("POST under parking echoed %q", got)
	}

	type outcome struct {
		answer string
		err    error
	}
	for _, tc := range []struct {
		name     string
		fate     Fate
		served   int32  // frames the server has seen once this one met its fate
		answered string // what the tap logged as its answer
		failed   bool
		deadline bool
	}{
		{"forward", Forward, 1, "re:forward", false, false},
		{"fail", Fail, 1, "", true, false},
		{"cut", Cut, 2, "re:cut", true, false},
		{"stall", Stall, 2, "", true, true},
	} {
		s := r.dial()
		done := make(chan outcome, 1)
		go func() {
			answer, err := exchange(s, 200*time.Millisecond, tc.name)
			done <- outcome{answer, err}
		}()
		var f *Frame
		select {
		case f = <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the frame never parked", tc.name)
		}
		select {
		case got := <-done:
			t.Fatalf("%s: the exchange ended (%q, %v) before its frame had a fate", tc.name, got.answer, got.err)
		default:
		}
		if string(f.Payload) != tc.name {
			t.Fatalf("%s: parked frame carries %q", tc.name, f.Payload)
		}
		f.Fate <- tc.fate
		got := <-done
		s.Close()
		if (got.err != nil) != tc.failed || (!tc.failed && got.answer != tc.answered) {
			t.Errorf("%s: the exchange answered %q, %v", tc.name, got.answer, got.err)
		}
		if errors.Is(got.err, wire.ErrDeadline) != tc.deadline {
			t.Errorf("%s: the exchange failed with %v, deadline expected: %v", tc.name, got.err, tc.deadline)
		}
		if served := r.srv.served.Load(); served != tc.served {
			t.Errorf("%s: the server has served %d frames, want %d", tc.name, served, tc.served)
		}
		if answer := string(r.tap.AnswerOf(f)); answer != tc.answered {
			t.Errorf("%s: the tap logged the answer %q, want %q", tc.name, answer, tc.answered)
		}
	}
	if got := r.tap.Upgrades(); got != 4 {
		t.Errorf("%d upgrades counted, want one a fate", got)
	}
}

// TestScriptedConn: reads hand the script out Chunk bytes at a time and end
// in io.EOF, writes are kept — and under Hijackable that is enough of a
// connection for a frame loop: two frames fed a byte at a time are answered
// after the 101, and the loop ends with the script.
func TestScriptedConn(t *testing.T) {
	conn := &ScriptedConn{Script: bytes.NewReader([]byte("abcdefgh")), Chunk: 3}
	var reads []string
	buf := make([]byte, 8)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			reads = append(reads, string(buf[:n]))
		}
		if err != nil {
			if err != io.EOF {
				t.Fatalf("the script ended in %v", err)
			}
			break
		}
	}
	if got := strings.Join(reads, "|"); got != "abc|def|gh" {
		t.Errorf("chunked reads %q, want abc|def|gh", got)
	}
	conn.Write([]byte("kept "))
	conn.Write([]byte("in order"))
	if got := conn.Wrote.String(); got != "kept in order" {
		t.Errorf("writes kept as %q", got)
	}

	frame := func(payload string) []byte {
		return wire.AppendFrame(nil, func(dst []byte) []byte { return append(dst, payload...) })
	}
	conn = &ScriptedConn{Script: bytes.NewReader(append(frame("one"), frame("two")...)), Chunk: 1}
	var srv echo
	if err := srv.streams.Serve(Hijackable{ResponseWriter: httptest.NewRecorder(), Conn: conn}, testProtocol, testLimit, time.Minute,
		func(in, out []byte) []byte { return append(append(out, "re:"...), in...) }, nil); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(wire.SwitchingProtocols(testProtocol)), append(frame("re:one"), frame("re:two")...)...)
	if !bytes.Equal(conn.Wrote.Bytes(), want) {
		t.Errorf("the frame loop wrote\n%q\nwant\n%q", conn.Wrote.Bytes(), want)
	}
}

// TestMortalServerKillAndRestart: KillConns closes what the server accepted,
// the hijacked stream httptest has forgotten included, so the client's next
// exchange fails; the listener stays, so the next dial and the next request
// are served — what a restarted server looks like from outside.
func TestMortalServerKillAndRestart(t *testing.T) {
	var mortal *MortalServer
	r := newRig(t, func(t testing.TB, h http.Handler) string {
		mortal = NewMortalServer(t, h)
		return mortal.URL
	})
	s := r.dial()
	defer s.Close()
	if got, err := exchange(s, time.Second, "before"); err != nil || got != "re:before" {
		t.Fatalf("exchange before the kill: %q, %v", got, err)
	}
	if got := r.post("keep-alive"); got != "keep-alive" {
		t.Fatalf("POST before the kill echoed %q", got)
	}

	mortal.KillConns()
	if got, err := exchange(s, time.Second, "into the void"); err == nil || errors.Is(err, wire.ErrDeadline) {
		t.Fatalf("exchange on a killed stream: %q, %v; want a broken connection", got, err)
	}
	if served := r.srv.served.Load(); served != 1 {
		t.Errorf("the server served %d frames, want only the one before the kill", served)
	}
	// Whether net/http has noticed yet that its keep-alive connection died
	// too is a race; a client that has dials afresh.
	r.hc.CloseIdleConnections()
	if got := r.post("after"); got != "after" {
		t.Fatalf("POST after the kill echoed %q", got)
	}
	fresh := r.dial()
	defer fresh.Close()
	if got, err := exchange(fresh, time.Second, "after"); err != nil || got != "re:after" {
		t.Fatalf("exchange after the kill: %q, %v", got, err)
	}
	if got := r.tap.Upgrades(); got != 2 {
		t.Errorf("%d upgrades counted, want the killed stream and the fresh one", got)
	}
}
