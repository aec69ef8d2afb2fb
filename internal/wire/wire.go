// Package wire pools the JSON codec scratch of the serving hot path. Every
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
	"io"
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
	bad bool // decoder state contaminated: never returns to the pool
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

// ReadAll appends r's content to the buffer, keeping at most limit bytes,
// and always consumes r to EOF — the tail past the limit is discarded, not
// left unread. Draining matters as much as reading: trailing unread bytes
// on an HTTP body defeat net/http connection reuse, turning every request
// into a fresh TCP handshake. An over-limit body surfaces downstream as a
// parse error on the truncated bytes.
func (b *Buf) ReadAll(r io.Reader, limit int64) error {
	b.lr = io.LimitedReader{R: r, N: limit}
	if _, err := b.buf.ReadFrom(&b.lr); err != nil {
		return err
	}
	_, err := io.Copy(io.Discard, r)
	return err
}

// Unmarshal decodes the buffered bytes into v through a decoder bound to
// the Buf for its pooled lifetime: json.Unmarshal pays several allocations
// of per-call scratch, a bound Decoder pays them once per Buf. Decoder
// semantics apply (trailing non-JSON bytes after the value are tolerated),
// but such a tail — like any decode error — marks the Buf contaminated so
// leftover decoder state cannot bleed into a later exchange's decode.
func (b *Buf) Unmarshal(v any) error {
	if b.dec == nil {
		b.dec = json.NewDecoder(&b.rd)
	}
	b.rd.Reset(b.buf.Bytes())
	if err := b.dec.Decode(v); err != nil {
		b.bad = true
		return err
	}
	if b.dec.More() {
		b.bad = true
	}
	return nil
}

// DecodeAll reads r fully (see ReadAll) and unmarshals the kept bytes
// into v.
func (b *Buf) DecodeAll(r io.Reader, limit int64, v any) error {
	if err := b.ReadAll(r, limit); err != nil {
		return err
	}
	return b.Unmarshal(v)
}
