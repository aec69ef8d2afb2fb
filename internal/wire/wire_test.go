package wire

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// TestReadAllRefusesPastLimit: a body longer than the limit is refused, and
// no more of it is read than it takes to know — a peer that never stops
// sending is not drained into a discard.
func TestReadAllRefusesPastLimit(t *testing.T) {
	b := Get()
	defer Put(b)
	src := strings.NewReader("0123456789")
	if err := b.ReadAll(src, 4); err != ErrTooLarge {
		t.Fatalf("a 10-byte body under a 4-byte limit: %v, want ErrTooLarge", err)
	}
	if src.Len() != 5 {
		t.Fatalf("%d of 10 bytes left unread, want 5: the limit and the one byte that shows it was passed", src.Len())
	}
	b.Reset()
	if err := b.ReadAll(strings.NewReader("0123"), 4); err != nil || string(b.Bytes()) != "0123" {
		t.Fatalf("a body of exactly the limit: %q, %v", b.Bytes(), err)
	}
}

// countingBody counts what is read of an endless body.
type countingBody struct{ read int }

func (c *countingBody) Read(p []byte) (int, error) { c.read += len(p); return len(p), nil }
func (c *countingBody) Close() error               { return nil }

// TestReadRequestStopsAtTheLimit: a request body past the limit is refused on
// its declared length without a byte read, or — when it declares none — once
// the limit is passed, and either way the connection is told to close.
func TestReadRequestStopsAtTheLimit(t *testing.T) {
	const limit = 1 << 10
	for _, declared := range []int64{2 * limit, -1} {
		body := &countingBody{}
		r := httptest.NewRequest(http.MethodPost, "/", body)
		r.ContentLength = declared
		w := httptest.NewRecorder()
		b := Get()
		err := b.ReadRequest(w, r, limit)
		Put(b)
		if err != ErrTooLarge {
			t.Errorf("declared length %d: %v, want ErrTooLarge", declared, err)
		}
		// bytes.Buffer reads in chunks of at least 512 bytes.
		if body.read > limit+512 {
			t.Errorf("declared length %d: read %d bytes of an endless body under a limit of %d", declared, body.read, limit)
		}
		if declared > 0 && (body.read != 0 || w.Header().Get("Connection") != "close") {
			t.Errorf("declared length %d: read %d bytes, Connection %q; want none read and close", declared, body.read, w.Header().Get("Connection"))
		}
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

	// A stray closing bracket is garbage too, and the kind Decoder.More takes
	// for the end of input: left in a pooled decoder it would fail the next
	// exchange's decode, someone else's.
	for _, tail := range []string{"}", " ]", "\n}"} {
		b := Get()
		b.buf.WriteString(`{"id":"a"}` + tail)
		if err := b.Unmarshal(&out); err != nil || !b.bad {
			t.Errorf("a value followed by %q: err %v, contaminated %v; want it decoded and the Buf dropped", tail, err, b.bad)
		}
		Put(b)
	}

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

// TestLongTailDoesNotOutliveItsExchange: the decoder refills in chunks and
// stops at the end of the value, so of a long tail it has read only a part;
// the rest is dropped with the payload. Neither part may reach the next
// decode on the same Buf — not as a miscounted offset (a long whitespace
// tail once panicked the slice below it on every later draw from the pool),
// not as garbage the decoder never saw.
func TestLongTailDoesNotOutliveItsExchange(t *testing.T) {
	pad := strings.Repeat(" ", 4096)
	for _, tc := range []struct {
		name, first string
		bad         bool
	}{
		{"whitespace", `{}` + pad, false},
		{"whitespace after a long value", `{"id":"` + strings.Repeat("x", 700) + `"}` + pad, false},
		{"garbage the decoder did not reach", `{}` + pad + "}", true},
		{"garbage the decoder buffered", `{} }` + pad, true},
	} {
		b := Get()
		var out msg
		if err := b.UnmarshalFrom([]byte(tc.first), &out); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if b.bad != tc.bad {
			t.Errorf("%s: contaminated %v, want %v", tc.name, b.bad, tc.bad)
		}
		if !b.bad {
			for i, next := range []string{`{"id":"a"}` + "\n", `{"id":"b","epoch":2}`, `{"id":"c"}` + pad, `{"id":"d"}`} {
				out = msg{}
				if err := b.UnmarshalFrom([]byte(next), &out); err != nil || out.ID != string(rune('a'+i)) || b.bad {
					t.Fatalf("%s: decode %d after the long tail: %+v, err %v, contaminated %v", tc.name, i, out, err, b.bad)
				}
			}
		}
		Put(b)
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

// FuzzBufReuse: whatever one exchange decoded, a Buf it left clean decodes
// the next payload exactly as a decoder that has seen nothing would — the
// pooled decoder's leftovers are nobody else's input, and no payload makes
// the tail check panic.
func FuzzBufReuse(f *testing.F) {
	f.Add([]byte(`{"id":"a"}`), []byte(`{"id":"b"}`))
	f.Add([]byte(`{}`+strings.Repeat(" ", 1000)), []byte(`{"id":"a"}`+"\n"))
	f.Add([]byte(`{"id":"a"}}`), []byte(`{"id":"b"}`))
	f.Add([]byte(`[1,2]`+strings.Repeat("\n", 600)+`]`), []byte(`7`))
	f.Add([]byte(`12`), []byte(`34 `))
	f.Fuzz(func(t *testing.T, first, second []byte) {
		b := Get()
		defer Put(b)
		var v any
		if err := b.UnmarshalFrom(first, &v); err != nil || b.bad {
			return
		}
		var got, want any
		err := b.UnmarshalFrom(second, &got)
		wantErr := json.NewDecoder(bytes.NewReader(second)).Decode(&want)
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("after %q, %q decoded to %v (err %v); a fresh decoder reads %v (err %v)", first, second, got, err, want, wantErr)
		}
	})
}
