package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// The framing of an upgraded connection, for both tiers that own one (an
// agent's /v1/stream, a coordinator's /v2/node/ops): a 4-byte big-endian
// length, then that many bytes of payload, one answer frame per request
// frame, in order. What a payload holds is its protocol's business.

// FrameHeader is the length prefix's size.
const FrameHeader = 4

// AppendFrame appends one frame to dst: the header, then the payload body
// appends.
func AppendFrame(dst []byte, body func([]byte) []byte) []byte {
	at := len(dst)
	dst = body(append(dst, make([]byte, FrameHeader)...))
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-FrameHeader))
	return dst
}

// ReadFrame reads one frame and returns its payload, in dst's memory when it
// fits. A payload past limit is refused before it is allocated or read.
// io.EOF means the stream ended between frames; inside one it is
// io.ErrUnexpectedEOF.
func ReadFrame(r *bufio.Reader, dst []byte, limit int) ([]byte, error) {
	head, err := r.Peek(FrameHeader)
	if err != nil {
		if err == io.EOF && len(head) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(head)
	if uint64(n) > uint64(limit) {
		return nil, fmt.Errorf("frame of %d bytes, the limit is %d", n, limit)
	}
	r.Discard(FrameHeader) // cannot fail: Peek buffered the header
	dst = slices.Grow(dst[:0], int(n))[:n]
	if _, err := io.ReadFull(r, dst); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return dst, nil
}
