// Package wire is what the serving tiers share of the wire: the pooled JSON
// codec scratch below, and (frame.go, stream.go) the framing and both ends
// of the upgraded connections that carry an agent's and a coordinator's
// calls.
//
// The codec scratch pools what the serving hot path would allocate. Every
// HTTP operation used to pay a fresh json.Marshal buffer on the way out and
// an io.ReadAll (or an undrained json.Decoder) on the way in; at serving
// rates that is the dominant steady-state allocation source of the wire
// tier. A pooled Buf carries a byte buffer, an encoder bound to it, and a
// reusable reader over its bytes, so a request/response round trip reuses
// one arena instead of allocating three.
//
// Contract: bytes obtained from a Buf (Bytes, Reader) are valid only until
// the Buf is reset or returned with Put. Anything that outlives the
// exchange — a replay-cache entry, an error message — must be copied out
// first.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
)

// Buf is pooled codec scratch. The zero value is not usable; obtain one
// with Get and return it with Put.
type Buf struct {
	buf bytes.Buffer
	enc *json.Encoder
	rd  bytes.Reader
	lr  io.LimitedReader
	dec *json.Decoder
	fed int64 // bytes dec has read over its lifetime
	bad bool  // decoder state contaminated: never returns to the pool
}

// maxPooledCap bounds what returns to the pool: one oversized exchange (a
// publication fetch, a mine response) must not pin its megabytes in a pool
// slot forever.
const maxPooledCap = 1 << 20

var pool = sync.Pool{New: func() any {
	b := &Buf{}
	b.enc = json.NewEncoder(&b.buf)
	return b
}}

// Get returns an empty Buf from the pool.
func Get() *Buf {
	b := pool.Get().(*Buf)
	b.buf.Reset()
	return b
}

// Put returns a Buf to the pool. Oversized buffers are dropped instead so
// the pool's steady-state footprint stays bounded by typical exchanges.
func Put(b *Buf) {
	if b == nil || b.bad || b.buf.Cap() > maxPooledCap {
		return
	}
	b.rd.Reset(nil)
	b.lr.R = nil
	pool.Put(b)
}

// Reset empties the buffer for reuse within one exchange (encode the
// request, then read the response into the same scratch).
func (b *Buf) Reset() { b.buf.Reset() }

// Encode appends v's JSON encoding (with the encoder's trailing newline)
// to the buffer.
func (b *Buf) Encode(v any) error { return b.enc.Encode(v) }

// Append hands enc the buffer's spare capacity as an empty slice and keeps
// what enc returns: the way in for append-style encoders (strconv.AppendInt
// and its kind), which then write straight into the pooled scratch. enc
// must only append.
func (b *Buf) Append(enc func(dst []byte) []byte) {
	b.buf.Write(enc(b.buf.AvailableBuffer()))
}

// Bytes returns the buffered bytes; valid until the next Reset/Put.
func (b *Buf) Bytes() []byte { return b.buf.Bytes() }

// Len returns the buffered length.
func (b *Buf) Len() int { return b.buf.Len() }

// Reader returns a reusable reader positioned at the start of the buffered
// bytes; valid until the next Reset/Put.
func (b *Buf) Reader() *bytes.Reader {
	b.rd.Reset(b.buf.Bytes())
	return &b.rd
}

// ErrTooLarge is ReadAll's refusal of a body longer than its limit.
var ErrTooLarge = errors.New("body exceeds the size limit")

// ReadAll appends r's content to the buffer, reading r to EOF — trailing
// unread bytes on an HTTP body defeat net/http connection reuse, turning
// every request into a fresh TCP handshake. A body longer than limit is
// ErrTooLarge, and nothing past the limit is read: whoever sent it can keep
// sending for ever, so the caller closes the connection instead of draining
// it.
func (b *Buf) ReadAll(r io.Reader, limit int64) error {
	b.lr = io.LimitedReader{R: r, N: limit + 1}
	if _, err := b.buf.ReadFrom(&b.lr); err != nil {
		return err
	}
	if b.lr.N == 0 {
		return ErrTooLarge
	}
	return nil
}

// ReadRequest reads a request body of at most limit bytes (see ReadAll). A
// longer one is ErrTooLarge with the connection marked to close after the
// answer, so net/http does not drain it either: on its declared length
// alone when it has one, otherwise once the limit has been read.
func (b *Buf) ReadRequest(w http.ResponseWriter, r *http.Request, limit int64) error {
	body := r.Body
	switch {
	case r.ContentLength > limit:
		w.Header().Set("Connection", "close")
		return ErrTooLarge
	case r.ContentLength < 0:
		body = http.MaxBytesReader(w, body, limit)
	}
	err := b.ReadAll(body, limit)
	if err != nil && errors.As(err, new(*http.MaxBytesError)) {
		err = ErrTooLarge
	}
	return err
}

// Unmarshal decodes the buffered bytes into v through a decoder bound to
// the Buf for its pooled lifetime: json.Unmarshal pays several allocations
// of per-call scratch, a bound Decoder pays them once per Buf. Decoder
// semantics apply (trailing non-JSON bytes after the value are tolerated),
// but such a tail — like any decode error — marks the Buf contaminated so
// leftover decoder state cannot bleed into a later exchange's decode.
func (b *Buf) Unmarshal(v any) error { return b.UnmarshalFrom(b.buf.Bytes(), v) }

// UnmarshalFrom is Unmarshal over p instead of the buffered bytes: the way
// in for a payload that already sits in someone else's memory (a frame's).
// p is only read, and not past the call.
func (b *Buf) UnmarshalFrom(p []byte, v any) error {
	if b.dec == nil {
		b.dec = json.NewDecoder(&b.rd)
	}
	b.rd.Reset(p)
	if err := b.dec.Decode(v); err != nil {
		b.bad = true
		return err
	}
	// The decoder refills in chunks and stopped right after the value: of p
	// it took all but what rd still holds, and of what it took it has not
	// consumed the last fed − InputOffset bytes (a clean Buf's earlier tails
	// were whitespace, skipped on the way to this value). Anything but
	// whitespace there would open the next exchange's decode; what rd holds
	// is dropped by the next Reset and held to the same rule. Decoder.More
	// cannot be asked: it reads a stray '}' or ']' as the end of input.
	taken := int64(len(p) - b.rd.Len())
	b.fed += taken
	for _, c := range p[taken-(b.fed-b.dec.InputOffset()):] {
		if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			b.bad = true
			break
		}
	}
	return nil
}
