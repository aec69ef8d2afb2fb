// Package wiretap is the tests' observer of what a client of this
// repository's two frame streams (an agent's /v1/stream, a coordinator's
// /v2/node/ops) puts on the wire, and the means to cut it: a Tap under a
// Transport's dialer, and a server whose accepted connections a test can
// kill. It is a package of its own only so that the tests of both tiers can
// share it; nothing outside tests imports it.
package wiretap

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/pombm/pombm/internal/wire"
)

// Fate is what a Tap does with a request frame it holds.
type Fate int

const (
	Forward Fate = iota // the frame goes through
	Fail                // the wire is cut under the write: the server never sees the frame
	Cut                 // the server gets the frame, applies it and answers; the connection dies before the answer is read
	Stall               // the frame goes nowhere and nothing comes back until the stream is closed
)

// Frame is one request frame a Tap saw leave.
type Frame struct {
	Node    string // the address it was bound for
	Payload []byte
	answer  []byte    // the answer frame's payload, once read (or, for a cut frame, swallowed)
	Fate    chan Fate // while parking: what becomes of the frame
}

// Tap is the tests' one observer of client → server traffic. It is
// installed under a Transport's DialContext and wraps every connection the
// transport opens, so it sees what no RoundTripper can: the frames of an
// upgraded stream. It logs every HTTP request sent and every frame, with
// its answer; it can give frames a network's latency; and while parking it
// holds each request frame until the test decides its fate.
type Tap struct {
	t testing.TB

	mu       sync.Mutex
	requests []string      // path of every HTTP request sent, stream upgrades included
	frames   []*Frame      // every request frame, in the order they left
	conns    []*tappedConn // every connection that became a stream
	delay    time.Duration // slept before a frame goes on
	arrived  chan *Frame   // non-nil: parking
}

// New installs a tap under tr's dialer and returns it with the client whose
// connections it wraps. Every stream it saw is closed when the test ends, so
// the goroutines serving them are.
func New(t testing.TB, tr *http.Transport) (*Tap, *http.Client) {
	tap := &Tap{t: t}
	dialer := &net.Dialer{Timeout: 10 * time.Second}
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := dialer.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &tappedConn{Conn: conn, tap: tap, node: addr, closed: make(chan struct{})}, nil
	}
	t.Cleanup(func() {
		tr.CloseIdleConnections()
		tap.mu.Lock()
		defer tap.mu.Unlock()
		for _, c := range tap.conns {
			c.Close()
		}
	})
	return tap, &http.Client{Transport: tr}
}

// Park makes every request frame from here on arrive on the returned channel
// and wait there for its Fate.
func (tap *Tap) Park() <-chan *Frame {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	tap.arrived = make(chan *Frame, 256) // room for every frame a test has in flight at once
	return tap.arrived
}

// SetDelay makes every frame from here on wait d before it goes on.
func (tap *Tap) SetDelay(d time.Duration) {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	tap.delay = d
}

// Sent returns the request frames and HTTP request paths logged so far;
// slicing a later call's answer by an earlier one's lengths is what happened
// in between.
func (tap *Tap) Sent() (frames []*Frame, requests []string) {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return append([]*Frame(nil), tap.frames...), append([]string(nil), tap.requests...)
}

// Upgrades counts the streams dialed so far.
func (tap *Tap) Upgrades() int {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return len(tap.conns)
}

// AnswerOf returns the answer logged for f (nil: none was read).
func (tap *Tap) AnswerOf(f *Frame) []byte {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return f.answer
}

// tappedConn is one connection under a Tap. Until an upgrade request leaves
// on it, it is an HTTP/1.1 connection whose requests are logged; after,
// every Write is one request frame.
type tappedConn struct {
	net.Conn
	tap  *Tap
	node string

	closeOnce sync.Once
	closed    chan struct{}

	// Guarded by tap.mu.
	stream bool
	due    *Frame // the frame whose answer is being read
	in     []byte // what has been read of it
}

func (c *tappedConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

var upgradeHeader = []byte("\r\nUpgrade: ")

func (c *tappedConn) Write(p []byte) (int, error) {
	tap := c.tap
	tap.mu.Lock()
	if !c.stream {
		// net/http writes a request's head (and a small body) in one Write.
		if line, _, ok := bytes.Cut(p, []byte(" HTTP/1.1\r\n")); ok {
			if _, path, ok := bytes.Cut(line, []byte(" ")); ok {
				tap.requests = append(tap.requests, string(path))
				if bytes.Contains(p, upgradeHeader) {
					c.stream = true
					tap.conns = append(tap.conns, c)
				}
			}
		}
		tap.mu.Unlock()
		return c.Conn.Write(p)
	}
	// A stream's holder issues one Write per frame: header and payload.
	if len(p) < wire.FrameHeader || int(binary.BigEndian.Uint32(p)) != len(p)-wire.FrameHeader {
		tap.mu.Unlock()
		tap.t.Errorf("a Write of %d bytes on a stream is not one whole frame", len(p))
		return 0, errors.New("wiretap: not a frame")
	}
	f := &Frame{Node: c.node, Payload: bytes.Clone(p[wire.FrameHeader:]), Fate: make(chan Fate, 1)}
	tap.frames = append(tap.frames, f)
	c.due, c.in = f, c.in[:0]
	delay, arrived := tap.delay, tap.arrived
	tap.mu.Unlock()

	time.Sleep(delay)
	what := Forward
	if arrived != nil {
		arrived <- f
		select {
		case what = <-f.Fate:
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	switch what {
	case Fail:
		c.Close()
		return 0, errors.New("wiretap: wire cut")
	case Stall:
		<-c.closed
		return 0, net.ErrClosed
	case Cut:
		n, err := c.Conn.Write(p)
		if err != nil {
			return n, err
		}
		var head [wire.FrameHeader]byte
		if _, err := io.ReadFull(c.Conn, head[:]); err != nil {
			tap.t.Errorf("wiretap: the server did not answer the frame to be cut: %v", err)
		}
		answer := make([]byte, binary.BigEndian.Uint32(head[:]))
		if _, err := io.ReadFull(c.Conn, answer); err != nil {
			tap.t.Errorf("wiretap: the server did not answer the frame to be cut: %v", err)
		}
		tap.mu.Lock()
		f.answer, c.due = answer, nil
		tap.mu.Unlock()
		c.Close()
		return n, nil
	}
	return c.Conn.Write(p)
}

func (c *tappedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tap.mu.Lock()
	defer c.tap.mu.Unlock()
	if c.due != nil && n > 0 {
		c.in = append(c.in, p[:n]...)
		if len(c.in) >= wire.FrameHeader {
			if size := int(binary.BigEndian.Uint32(c.in)); len(c.in) >= wire.FrameHeader+size {
				c.due.answer, c.due = bytes.Clone(c.in[wire.FrameHeader:wire.FrameHeader+size]), nil
			}
		}
	}
	return n, err
}

// MortalServer is an httptest server whose live connections — hijacked ones
// included, which httptest itself forgets — a test can kill from the
// server's side: what a server's restart looks like from a client's sockets.
type MortalServer struct {
	*httptest.Server
	mu    sync.Mutex
	conns []net.Conn
}

type mortalListener struct {
	net.Listener
	srv *MortalServer
}

func (l mortalListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.srv.mu.Lock()
		l.srv.conns = append(l.srv.conns, conn)
		l.srv.mu.Unlock()
	}
	return conn, err
}

// NewMortalServer starts one serving h; the test's end closes it.
func NewMortalServer(t testing.TB, h http.Handler) *MortalServer {
	m := &MortalServer{Server: httptest.NewUnstartedServer(h)}
	m.Listener = mortalListener{m.Listener, m}
	m.Start()
	t.Cleanup(m.Close)
	return m
}

// KillConns closes every connection accepted so far.
func (m *MortalServer) KillConns() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.conns {
		c.Close()
	}
	m.conns = nil
}

// ScriptedConn is a connection whose peer is a script: reads hand out the
// script at most Chunk bytes at a time (0: all there is) and end in io.EOF,
// writes are kept. Deadlines mean nothing to it. With Hijackable it puts a
// frame loop under a fuzzer without a socket.
type ScriptedConn struct {
	Script *bytes.Reader
	Chunk  int
	Wrote  bytes.Buffer
}

func (c *ScriptedConn) Read(p []byte) (int, error) {
	if c.Chunk > 0 && len(p) > c.Chunk {
		p = p[:c.Chunk]
	}
	return c.Script.Read(p)
}
func (c *ScriptedConn) Write(p []byte) (int, error)      { return c.Wrote.Write(p) }
func (c *ScriptedConn) Close() error                     { return nil }
func (c *ScriptedConn) LocalAddr() net.Addr              { return nil }
func (c *ScriptedConn) RemoteAddr() net.Addr             { return nil }
func (c *ScriptedConn) SetDeadline(time.Time) error      { return nil }
func (c *ScriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *ScriptedConn) SetWriteDeadline(time.Time) error { return nil }

// Hijackable is a ResponseWriter whose connection is a ScriptedConn.
type Hijackable struct {
	http.ResponseWriter
	Conn *ScriptedConn
}

func (h Hijackable) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	return h.Conn, bufio.NewReadWriter(bufio.NewReader(h.Conn), bufio.NewWriter(h.Conn)), nil
}
