package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"github.com/pombm/pombm/internal/platform"
)

// The /v2/node/ops stream: both ends of the framing a routed op travels in
// (protocol.go has the contract). A POST /v2/node/ops that asks to upgrade
// to opsProtocol is answered 101 and its connection then carries frames in
// both directions — a 4-byte big-endian length, then one envelope of the
// ops grammar — one answer frame per request frame, in order.

const (
	// opsProtocol is the Upgrade token of the frame stream.
	opsProtocol = "pombm-ops/1"
	// maxFrame bounds a frame's payload, either direction: about sixty times
	// a full maxOpsPerEnvelope envelope. A longer one is refused by closing
	// the stream before any of it is buffered.
	maxFrame = 1 << 20
	// frameHeader is the length prefix's size.
	frameHeader = 4
)

// opsIdleLimit is how long a node keeps a stream that carries nothing —
// platform.NewTransport's IdleConnTimeout, the lifetime an idle keep-alive
// connection has. http.Server.Close and Shutdown never see a hijacked
// connection, so the limit is also what ends the streams of a coordinator
// that went away without closing them. A variable only so that a test can
// shorten it; a stream reads it once, when it starts.
var opsIdleLimit = 90 * time.Second

// appendFrame appends one frame to dst: the header, then the payload body
// appends.
func appendFrame(dst []byte, body func([]byte) []byte) []byte {
	at := len(dst)
	dst = body(append(dst, make([]byte, frameHeader)...))
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-frameHeader))
	return dst
}

// readFrame reads one frame and returns its payload, in dst's memory when it
// fits. A payload past maxFrame is refused before it is allocated or read.
// io.EOF means the stream ended between frames; inside one it is
// io.ErrUnexpectedEOF.
func readFrame(r *bufio.Reader, dst []byte) ([]byte, error) {
	head, err := r.Peek(frameHeader)
	if err != nil {
		if err == io.EOF && len(head) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(head)
	if n > maxFrame {
		return nil, fmt.Errorf("frame of %d bytes, the limit is %d", n, maxFrame)
	}
	r.Discard(frameHeader) // cannot fail: Peek buffered the header
	dst = slices.Grow(dst[:0], int(n))[:n]
	if _, err := io.ReadFull(r, dst); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return dst, nil
}

// ---- node side ----

// switchingProtocols is the node's whole answer to the upgrade request.
const switchingProtocols = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + opsProtocol + "\r\n\r\n"

// serveOps takes the connection over from net/http and answers frames on it
// until the peer closes, a frame breaks the framing (too long, cut short) or
// none arrives for opsIdleLimit. The payload of an answer frame is
// byte-for-byte the body the same envelope POSTed would be answered with:
// answerOps makes both. It runs on the handler's goroutine and returns when
// the stream ends.
func serveOps(w http.ResponseWriter, n *Node, cache *replayCache) {
	// Hijack clears the deadlines an http.Server's ReadTimeout and
	// WriteTimeout left on the connection; from here on it has only the ones
	// set below.
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		writeNodeJSON(w, http.StatusInternalServerError, &platform.Error{
			Code: platform.CodeInternal, Message: "cluster: " + PathNodeOps + " upgrade: " + err.Error(),
		})
		return
	}
	defer conn.Close()
	idle := opsIdleLimit
	var (
		in  []byte
		out = append([]byte(nil), switchingProtocols...)
		few [4]OpRequest // most envelopes carry one op; a window's commits spill to the heap
	)
	for {
		// One deadline a frame: it bounds the wait for the frame and the
		// write before it (the 101, then each answer), so a peer that sends
		// and never reads cannot park this goroutine in Write either.
		conn.SetDeadline(time.Now().Add(idle))
		if _, err := conn.Write(out); err != nil {
			return
		}
		// The first frame may already sit in the reader net/http filled.
		if in, err = readFrame(brw.Reader, in); err != nil {
			return
		}
		ops, scanErr := scanOps(in, few[:0])
		out = appendFrame(out[:0], func(dst []byte) []byte { return answerOps(n, cache, ops, scanErr, dst) })
	}
}

// ---- coordinator side ----

// opsStream is one upgraded connection to a node, owned by whoever holds the
// batcher slot it came with: one frame out, one frame back, on the holder's
// goroutine. There is nothing to multiplex — a slot means one envelope in
// flight — so it has no reader goroutine, channel or tag.
type opsStream struct {
	rwc io.ReadWriteCloser // the 101's body: the connection itself
	br  *bufio.Reader
	buf []byte // the request frame, then the answer's payload
	// watchdog closes rwc when an exchange outlives the op deadline: the
	// connection net/http hands over takes no SetDeadline, and the upgrade
	// request's context is dead weight once the 101 is in.
	watchdog *time.Timer
}

// dialOps opens a stream: the upgrade request goes through the caller's
// http.Client, so whatever that pins — transport, TLS, a proxy — carries the
// connection, under the op deadline d. A refusal names its cause; like every
// failure to reach the node it is a transport failure.
func (h *httpNode) dialOps(d time.Duration) (*opsStream, error) {
	if h.dialErr != nil {
		return nil, h.dialErr
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel() // the stream outlives it: net/http lets go of an upgraded connection
	resp, err := h.client.Do(h.reqs[PathNodeOps].WithContext(ctx))
	if err != nil {
		if ctx.Err() == context.DeadlineExceeded {
			return nil, deadlineErr(PathNodeOps, d)
		}
		return nil, fmt.Errorf("%w: dial %s: %v", errTransport, PathNodeOps, err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		resp.Body.Close()
		return nil, fmt.Errorf("%w: dial %s: the %s upgrade was answered %s: the hop must be HTTP/1.1 and pass Upgrade, as for a WebSocket",
			errTransport, PathNodeOps, opsProtocol, resp.Status)
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if !ok {
		resp.Body.Close()
		return nil, fmt.Errorf("%w: dial %s: the 101's body (%T) cannot be written to: http.Client.Timeout must be zero and no RoundTripper may wrap response bodies",
			errTransport, PathNodeOps, resp.Body)
	}
	s := &opsStream{rwc: rwc, br: bufio.NewReader(rwc)}
	s.watchdog = time.AfterFunc(d, s.close)
	s.watchdog.Stop()
	return s, nil
}

func (s *opsStream) close() { s.rwc.Close() }

// exchange sends the envelope body appends as one frame — header and payload
// in one Write — and returns the payload of the one answer frame, valid
// until the next exchange. After any error the stream is dead and the caller
// closes it. Outliving d is the typed deadline refusal, not a transport
// failure: the envelope may have been applied, and running it again would
// double the stall without changing the outcome.
func (s *opsStream) exchange(d time.Duration, body func([]byte) []byte) ([]byte, error) {
	s.buf = appendFrame(s.buf[:0], body)
	s.watchdog.Reset(d)
	_, err := s.rwc.Write(s.buf)
	if err == nil {
		s.buf, err = readFrame(s.br, s.buf)
	}
	if !s.watchdog.Stop() {
		return nil, deadlineErr(PathNodeOps, d)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %s stream: %v", errTransport, PathNodeOps, err)
	}
	return s.buf, nil
}
