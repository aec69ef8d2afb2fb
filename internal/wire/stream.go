package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// Both ends of an upgraded connection that carries frames (frame.go): the
// serving end takes the connection over from net/http and answers frames on
// the handler's goroutine; the calling end owns one connection per Stream
// and does one frame out, one frame back, on its caller's goroutine. Neither
// end has a goroutine, channel or tag of its own — there is nothing to
// multiplex, a stream has one exchange in flight.

// ---- serving end ----

// Streams is the set of upgraded connections one owner (a platform.Server,
// a cluster.Node) is answering frames on. http.Server.Close and Shutdown
// never see a hijacked connection; Close is what ends these. The zero value
// is ready to use.
type Streams struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // one count per connection being served
}

// SwitchingProtocols is the serving end's whole answer to the upgrade
// request.
func SwitchingProtocols(protocol string) string {
	return "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + protocol + "\r\n\r\n"
}

// Serve takes the connection over from net/http, answers the upgrade with
// the 101 and then answers frames until the peer closes, a frame breaks the
// framing (past limit, cut short), none arrives for idle, or Close. answer
// appends the payload of the answer to in onto out; wrote, when non-nil, is
// called once that answer has been written, before the next frame is waited
// for. Serve runs on the handler's goroutine and returns when the stream
// ends; the only error is a connection net/http could not hand over, which
// is still the caller's to answer.
func (s *Streams) Serve(w http.ResponseWriter, protocol string, limit int, idle time.Duration,
	answer func(in, out []byte) []byte, wrote func()) error {
	// Hijack clears the deadlines an http.Server's ReadTimeout and
	// WriteTimeout left on the connection; from here on it has only the ones
	// set below.
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		return err
	}
	if !s.add(conn) {
		conn.Close()
		return nil
	}
	defer s.remove(conn) // after the Close below: Streams.Close waits for it
	defer conn.Close()
	var (
		in  []byte
		out = []byte(SwitchingProtocols(protocol))
	)
	for answered := false; ; answered = true {
		// One deadline a frame: it bounds the wait for the frame and the
		// write before it (the 101, then each answer), so a peer that sends
		// and never reads cannot park this goroutine in Write either.
		conn.SetDeadline(time.Now().Add(idle))
		if _, err := conn.Write(out); err != nil {
			return nil
		}
		if answered && wrote != nil {
			wrote()
		}
		// The first frame may already sit in the reader net/http filled.
		if in, err = ReadFrame(brw.Reader, in, limit); err != nil {
			return nil
		}
		out = AppendFrame(out[:0], func(dst []byte) []byte { return answer(in, dst) })
	}
}

func (s *Streams) add(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = map[net.Conn]struct{}{}
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Streams) remove(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.wg.Done()
}

// Open returns the number of streams being served now.
func (s *Streams) Open() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Close closes every stream being served, refuses the ones that ask later,
// and returns once every Serve has: a frame being answered is answered
// first, into a closed connection.
func (s *Streams) Close() {
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// ---- calling end ----

// ErrRefused marks an upgrade that was answered, but not with a 101 whose
// body can be written to: the peer or the hop cannot carry a stream, and
// asking again will be answered the same. A failure to reach the peer at
// all is not one.
var ErrRefused = errors.New("upgrade refused")

// ErrDeadline marks a dial or an exchange that outlived its bound.
var ErrDeadline = errors.New("deadline exceeded")

// UpgradeRequest returns the body-less request that asks url to switch to
// protocol. It is a template: Dial sends a copy.
func UpgradeRequest(method, url, protocol string) (*http.Request, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", protocol)
	return req, nil
}

// Stream is one upgraded connection, owned by whoever holds it.
type Stream struct {
	rwc io.ReadWriteCloser // the 101's body: the connection itself
	br  *bufio.Reader
	buf []byte // the request frame, then the answer's payload
	// watchdog closes rwc when an exchange outlives its bound: the
	// connection net/http hands over takes no SetDeadline, and the upgrade
	// request's context is dead weight once the 101 is in.
	watchdog *time.Timer
}

// Dial opens a stream: the upgrade request goes through the caller's
// http.Client, so whatever that pins — transport, TLS, a proxy — carries the
// connection, under the bound d. A refusal names its cause.
func Dial(hc *http.Client, upgrade *http.Request, d time.Duration) (*Stream, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel() // the stream outlives it: net/http lets go of an upgraded connection
	resp, err := hc.Do(upgrade.WithContext(ctx))
	if err != nil {
		if ctx.Err() == context.DeadlineExceeded {
			return nil, ErrDeadline
		}
		return nil, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		// Read the refusal out, within reason, so that the connection it came
		// on goes back to the keep-alive pool.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		return nil, fmt.Errorf("%w: the %s upgrade was answered %s: the hop must be HTTP/1.1 and pass Upgrade, as for a WebSocket",
			ErrRefused, upgrade.Header.Get("Upgrade"), resp.Status)
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if !ok {
		resp.Body.Close()
		return nil, fmt.Errorf("%w: the 101's body (%T) cannot be written to: http.Client.Timeout must be zero and no RoundTripper may wrap response bodies",
			ErrRefused, resp.Body)
	}
	s := &Stream{rwc: rwc, br: bufio.NewReader(rwc)}
	s.watchdog = time.AfterFunc(d, s.Close)
	s.watchdog.Stop()
	return s, nil
}

// Close closes the connection.
func (s *Stream) Close() { s.rwc.Close() }

// Exchange sends the payload body appends as one frame — header and payload
// in one Write — and returns the payload of the one answer frame (at most
// limit bytes), valid until the next Exchange. After any error the stream is
// dead and the caller closes it; outliving d is ErrDeadline. The frame is
// written once: whether a failed exchange was applied by the peer is not
// known here, and what to do about that is the caller's protocol.
func (s *Stream) Exchange(d time.Duration, limit int, body func([]byte) []byte) ([]byte, error) {
	s.buf = AppendFrame(s.buf[:0], body)
	s.watchdog.Reset(d)
	_, err := s.rwc.Write(s.buf)
	if err == nil {
		s.buf, err = ReadFrame(s.br, s.buf, limit)
	}
	if !s.watchdog.Stop() {
		return nil, ErrDeadline
	}
	if err != nil {
		return nil, err
	}
	return s.buf, nil
}
