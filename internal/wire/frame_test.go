package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// TestFrameRoundTrip pins the framing itself: what AppendFrame writes,
// ReadFrame reads back, frame after frame off one reader; a stream that ends
// between frames is io.EOF, inside one io.ErrUnexpectedEOF; and a frame past
// the cap is refused on its header alone.
func TestFrameRoundTrip(t *testing.T) {
	const limit = 1 << 20
	payloads := [][]byte{[]byte(`{"ops":[]}` + "\n"), {}, bytes.Repeat([]byte("x"), 10000)}
	var wire []byte
	for _, p := range payloads {
		wire = AppendFrame(wire, func(dst []byte) []byte { return append(dst, p...) })
	}
	r := bufio.NewReader(bytes.NewReader(wire))
	var got []byte
	for i, want := range payloads {
		var err error
		if got, err = ReadFrame(r, got, limit); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: read %d bytes, err %v; want the %d written", i, len(got), err, len(want))
		}
	}
	if _, err := ReadFrame(r, got, limit); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	for _, cut := range []int{1, FrameHeader - 1, FrameHeader, FrameHeader + 3} {
		if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(wire[:cut])), nil, limit); err != io.ErrUnexpectedEOF {
			t.Errorf("a stream cut %d bytes into a frame: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	over := []byte{0, 0x10, 0, 1} // limit + 1, and not a byte of it behind
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(over)), nil, limit); err == nil || err == io.ErrUnexpectedEOF {
		t.Errorf("a frame of limit + 1: %v, want the cap's refusal before any of it is read", err)
	}
}
