package cluster

import (
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

	"github.com/pombm/pombm/internal/platform"
)

// fate is what a wiretap does with a request frame it holds.
type fate int

const (
	forward fate = iota // the frame goes through
	fail                // the wire is cut under the write: the node never sees the frame
	cut                 // the node gets the frame, applies it and answers; the connection dies before the answer is read
	stall               // the frame goes nowhere and nothing comes back until the stream is closed
)

// tappedFrame is one request frame a wiretap saw leave.
type tappedFrame struct {
	node    string // the address it was bound for
	payload []byte // the envelope
	ops     int    // the ops it carries
	answer  []byte // the answer frame's payload, once read (or, for a cut frame, swallowed)
	fate    chan fate
}

// wiretap is the tests' one observer of coordinator → node traffic. It is
// installed under a Transport's DialContext and wraps every connection the
// transport opens, so it sees what no RoundTripper can: the frames of an
// upgraded /v2/node/ops stream. It logs every HTTP request sent and every
// frame, with its answer; it can give frames a network's latency; and while
// parking it holds each request frame until the test decides its fate.
type wiretap struct {
	t *testing.T

	mu      sync.Mutex
	posts   []string          // path of every HTTP request sent, stream upgrades included
	frames  []*tappedFrame    // every request frame, in the order they left
	conns   []*tappedConn     // every connection that became a stream
	delay   time.Duration     // slept before a frame goes on
	arrived chan *tappedFrame // non-nil: parking
}

// newWiretap returns a tap and the client whose connections it wraps. Every
// stream it saw is closed when the test ends, so the nodes' goroutines are.
func newWiretap(t *testing.T) (*wiretap, *http.Client) {
	tap := &wiretap{t: t}
	tr := platform.NewTransport()
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

// park makes every request frame from here on wait on arrived for its fate.
func (tap *wiretap) park() <-chan *tappedFrame {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	tap.arrived = make(chan *tappedFrame, 256) // room for every frame a test has in flight at once
	return tap.arrived
}

func (tap *wiretap) setDelay(d time.Duration) {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	tap.delay = d
}

// sent returns the request frames and HTTP request paths logged so far;
// slicing a later call's answer by an earlier one's lengths is what happened
// in between.
func (tap *wiretap) sent() (frames []*tappedFrame, posts []string) {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return append([]*tappedFrame(nil), tap.frames...), append([]string(nil), tap.posts...)
}

// upgrades counts the streams dialed so far.
func (tap *wiretap) upgrades() int {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return len(tap.conns)
}

// answerOf returns the answer logged for f (nil: none was read).
func (tap *wiretap) answerOf(f *tappedFrame) []byte {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return f.answer
}

// tappedConn is one connection under a wiretap. Until the ops upgrade
// leaves on it, it is an HTTP/1.1 connection whose requests are logged;
// after, every Write is one request frame.
type tappedConn struct {
	net.Conn
	tap  *wiretap
	node string

	closeOnce sync.Once
	closed    chan struct{}

	// Guarded by tap.mu.
	stream bool
	due    *tappedFrame // the frame whose answer is being read
	in     []byte       // what has been read of it
}

func (c *tappedConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

var (
	upgradeHeader = []byte("\r\nUpgrade: " + opsProtocol + "\r\n")
	opKindKey     = []byte(`"kind":`)
)

func (c *tappedConn) Write(p []byte) (int, error) {
	tap := c.tap
	tap.mu.Lock()
	if !c.stream {
		// net/http writes a request's head (and a small body) in one Write.
		if rest, ok := bytes.CutPrefix(p, []byte("POST ")); ok {
			path, _, _ := bytes.Cut(rest, []byte(" "))
			tap.posts = append(tap.posts, string(path))
			if string(path) == PathNodeOps && bytes.Contains(p, upgradeHeader) {
				c.stream = true
				tap.conns = append(tap.conns, c)
			}
		}
		tap.mu.Unlock()
		return c.Conn.Write(p)
	}
	// The slot holder issues one Write per frame: header and envelope.
	if len(p) < frameHeader || int(binary.BigEndian.Uint32(p)) != len(p)-frameHeader {
		tap.t.Errorf("a Write of %d bytes on a stream is not one whole frame", len(p))
	}
	f := &tappedFrame{node: c.node, payload: bytes.Clone(p[frameHeader:]), ops: bytes.Count(p, opKindKey), fate: make(chan fate, 1)}
	tap.frames = append(tap.frames, f)
	c.due, c.in = f, c.in[:0]
	delay, arrived := tap.delay, tap.arrived
	tap.mu.Unlock()

	time.Sleep(delay)
	what := forward
	if arrived != nil {
		arrived <- f
		select {
		case what = <-f.fate:
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	switch what {
	case fail:
		c.Close()
		return 0, errors.New("wiretap: wire cut")
	case stall:
		<-c.closed
		return 0, net.ErrClosed
	case cut:
		n, err := c.Conn.Write(p)
		if err != nil {
			return n, err
		}
		var head [frameHeader]byte
		if _, err := io.ReadFull(c.Conn, head[:]); err != nil {
			tap.t.Errorf("wiretap: the node did not answer the frame to be cut: %v", err)
		}
		answer := make([]byte, binary.BigEndian.Uint32(head[:]))
		if _, err := io.ReadFull(c.Conn, answer); err != nil {
			tap.t.Errorf("wiretap: the node did not answer the frame to be cut: %v", err)
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
		if len(c.in) >= frameHeader {
			if size := int(binary.BigEndian.Uint32(c.in)); len(c.in) >= frameHeader+size {
				c.due.answer, c.due = bytes.Clone(c.in[frameHeader:frameHeader+size]), nil
			}
		}
	}
	return n, err
}

// countByNode tallies frames per node address and the ops they carry.
func countByNode(frames []*tappedFrame) (byNode map[string]int, ops int) {
	byNode = map[string]int{}
	for _, f := range frames {
		byNode[f.node]++
		ops += f.ops
	}
	return byNode, ops
}

// mortalServer is an httptest server whose live connections — hijacked ones
// included, which httptest itself forgets — a test can kill from the node's
// side: what a node's restart looks like from the coordinator's sockets.
type mortalServer struct {
	*httptest.Server
	mu    sync.Mutex
	conns []net.Conn
}

type mortalListener struct {
	net.Listener
	srv *mortalServer
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

func newMortalServer(t *testing.T, h http.Handler) *mortalServer {
	m := &mortalServer{Server: httptest.NewUnstartedServer(h)}
	m.Listener = mortalListener{m.Listener, m}
	m.Start()
	t.Cleanup(m.Close)
	return m
}

// killConns closes every connection accepted so far.
func (m *mortalServer) killConns() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.conns {
		c.Close()
	}
	m.conns = nil
}
