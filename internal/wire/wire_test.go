package wire

import (
	"strings"
	"testing"
)

type msg struct {
	ID    string `json:"id"`
	Epoch int64  `json:"epoch,omitempty"`
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	b := Get()
	defer Put(b)
	in := msg{ID: "w-1", Epoch: 7}
	if err := b.Encode(in); err != nil {
		t.Fatal(err)
	}
	if got := string(b.Bytes()); got != `{"id":"w-1","epoch":7}`+"\n" {
		t.Fatalf("encoded %q", got)
	}
	var out msg
	if err := b.Unmarshal(&out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("roundtrip: %+v != %+v", out, in)
	}
	if b.bad {
		t.Fatal("clean roundtrip marked the Buf contaminated")
	}
}

func TestReadAllDrainsPastLimit(t *testing.T) {
	b := Get()
	defer Put(b)
	src := strings.NewReader("0123456789")
	if err := b.ReadAll(src, 4); err != nil {
		t.Fatal(err)
	}
	if got := string(b.Bytes()); got != "0123" {
		t.Fatalf("kept %q, want the first 4 bytes", got)
	}
	if src.Len() != 0 {
		t.Fatalf("%d bytes left unread: the tail must be drained for keep-alive", src.Len())
	}
}

func TestTrailingGarbageContaminates(t *testing.T) {
	b := Get()
	b.buf.WriteString(`{"id":"a"} GARBAGE`)
	var out msg
	// Decoder semantics: the value itself still decodes.
	if err := b.Unmarshal(&out); err != nil {
		t.Fatalf("value before garbage failed to decode: %v", err)
	}
	if out.ID != "a" {
		t.Fatalf("decoded %+v", out)
	}
	if !b.bad {
		t.Fatal("trailing garbage did not contaminate the Buf")
	}
	Put(b) // must drop, not pool — nothing to assert beyond not panicking

	b2 := Get()
	defer Put(b2)
	b2.buf.WriteString("{nope")
	if err := b2.Unmarshal(&out); err == nil {
		t.Fatal("malformed payload decoded")
	}
	if !b2.bad {
		t.Fatal("decode error did not contaminate the Buf")
	}
}

func TestWhitespaceTailStaysClean(t *testing.T) {
	b := Get()
	defer Put(b)
	for i := 0; i < 3; i++ {
		b.Reset()
		b.buf.WriteString(`{"id":"a","epoch":1}` + " \t\r\n")
		var out msg
		if err := b.Unmarshal(&out); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if b.bad {
			t.Fatalf("iter %d: whitespace tail contaminated the Buf", i)
		}
	}
}

// TestAppendKeepsWhatTheEncoderReturns: Append hands out spare capacity
// behind the buffered bytes and keeps the encoder's result whether it fitted
// that capacity or outgrew it into a slice of its own.
func TestAppendKeepsWhatTheEncoderReturns(t *testing.T) {
	b := Get()
	defer Put(b)
	b.buf.WriteString("head:")
	b.Append(func(dst []byte) []byte {
		if len(dst) != 0 {
			t.Errorf("encoder handed %d bytes, want an empty slice", len(dst))
		}
		return append(dst, "fits"...)
	})
	big := strings.Repeat("x", b.buf.Cap()+1)
	b.Append(func(dst []byte) []byte { return append(dst, big...) })
	if got, want := string(b.Bytes()), "head:fits"+big; got != want {
		t.Fatalf("buffered %d bytes %.20q…, want %d bytes %.20q…", len(got), got, len(want), want)
	}
}

func TestOversizedBufNotPooled(t *testing.T) {
	b := Get()
	b.buf.Grow(maxPooledCap + 1)
	Put(b) // must drop silently
	if got := Get(); got == b {
		// Possible only if the oversized Buf was pooled; another goroutine's
		// Buf colliding here cannot happen in a serial test.
		t.Fatal("oversized Buf returned to the pool")
	}
}

func TestReaderTracksBuffer(t *testing.T) {
	b := Get()
	defer Put(b)
	b.buf.WriteString("abc")
	r := b.Reader()
	got := make([]byte, 3)
	if n, _ := r.Read(got); n != 3 || string(got) != "abc" {
		t.Fatalf("read %q (%d bytes)", got[:n], n)
	}
}
