package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzJSONCodec holds the codec's shared pieces to encoding/json:
// AppendString and AppendBase64 write what json.Marshal writes, whatever
// a scanner method takes of a token, json.Unmarshal decodes to the same
// value, and Float takes every number json.Unmarshal reads into a float64. The protocols built on them have differentials of their own
// (FuzzOpsCodec, FuzzAgentCodec).
func FuzzJSONCodec(f *testing.F) {
	for _, tok := range []string{
		`"plain"`, `"esc\"\\\/\b\f\n\r\té😀"`, "\"bad-utf8-\xff\"", `"\ud800"`, `"\x"`, "\"ctl\x01\"", `"open`,
		`0`, `-0`, `12`, `-9223372036854775808`, `9223372036854775807`, `9223372036854775808`, `01`, `1.0`, `1e2`, `-`,
		`1E+2`, `1e400`, `-1e-400`, `4.9e-324`, `.5`, `+1`, `1.`, `1e`, `1e+`, `-01.5`, `0.1e-2`, `1.7976931348623157e308`,
		`true`, `false`, `tru`, `null`, ` "ws" `,
	} {
		f.Add("a\"b\\c<d>&e\x7f  \xff\x00\n", []byte{0, 1, 254, 255}, []byte(tok))
	}
	f.Fuzz(func(t *testing.T, s string, b []byte, tok []byte) {
		for _, tc := range []struct {
			got []byte
			v   any
		}{{AppendString(nil, s), s}, {AppendBase64(nil, b), b}} {
			if want, err := json.Marshal(tc.v); err != nil || !bytes.Equal(tc.got, want) {
				t.Fatalf("%q encoded\n got %q\nwant %q (%v)", tc.v, tc.got, want, err)
			}
		}

		sc := Scan(tok)
		if v, err := sc.Str(); err == nil && sc.End() == nil {
			var ref string
			if err := json.Unmarshal(tok, &ref); err != nil || ref != string(v) {
				t.Fatalf("Str took %q as %q, encoding/json reads %q (%v)", tok, v, ref, err)
			}
		}
		sc = Scan(tok)
		if v, err := sc.Base64(nil); err == nil && sc.End() == nil {
			var ref []byte
			if err := json.Unmarshal(tok, &ref); err != nil || !bytes.Equal(ref, v) {
				t.Fatalf("Base64 took %q as %x, encoding/json reads %x (%v)", tok, v, ref, err)
			}
		}
		sc = Scan(tok)
		if v, err := sc.Integer(); err == nil && sc.End() == nil {
			var ref int64
			if err := json.Unmarshal(tok, &ref); err != nil || ref != v {
				t.Fatalf("Integer took %q as %d, encoding/json reads %d (%v)", tok, v, ref, err)
			}
		}
		sc = Scan(tok)
		v, err := sc.Float()
		taken := err == nil && sc.End() == nil
		var ref float64
		refErr := json.Unmarshal(tok, &ref)
		if number := bytes.TrimLeft(tok, " \t\r\n"); refErr == nil && len(number) > 0 && number[0] != 'n' && !taken {
			t.Fatalf("Float refused %q, encoding/json reads %v", tok, ref)
		}
		if taken && (refErr != nil || math.Float64bits(ref) != math.Float64bits(v)) {
			t.Fatalf("Float took %q as %v, encoding/json reads %v (%v)", tok, v, ref, refErr)
		}
		sc = Scan(tok)
		if v, err := sc.Bool(); err == nil && sc.End() == nil {
			var ref bool
			if err := json.Unmarshal(tok, &ref); err != nil || ref != v {
				t.Fatalf("Bool took %q as %v, encoding/json reads %v (%v)", tok, v, ref, err)
			}
		}
	})
}

// FuzzAppendFloat holds AppendFloat to json.Marshal over every float64 bit
// pattern: the same bytes for a finite value, and for a NaN or an infinity,
// which json.Marshal refuses, bytes no JSON reader takes.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-6, 9.99e-7, 1e-7, 1.5e-300, 1e20, 1e21, -1e21, 1.2345e22,
		math.SmallestNonzeroFloat64, 2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), 123456789.125, 1 << 53,
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		got := AppendFloat([]byte("x"), v)[1:]
		want, err := json.Marshal(v)
		switch {
		case err != nil && json.Valid(got):
			t.Fatalf("%v: json.Marshal refuses it, AppendFloat wrote JSON %q", v, got)
		case err == nil && !bytes.Equal(got, want):
			t.Fatalf("%v (%#x): got %q, want %q", v, bits, got, want)
		}
	})
}

// TestScannerObject pins what Object refuses: a key it was not given, one
// it has seen, and a member without its colon.
func TestScannerObject(t *testing.T) {
	names := []string{"a", "b"}
	for doc, want := range map[string]string{
		`{"a":1,"b":2}`:        "",
		` { "b" : 2 , "a":1 }`: "",
		`{}`:                   "",
		`{"c":1}`:              `at byte 4: unknown field "c"`,
		`{"A":1}`:              `at byte 4: unknown field "A"`,
		`{"a":1,"a":2}`:        `at byte 10: duplicate field "a"`,
		`{"a" 1}`:              `at byte 5: expected ':'`,
		`{"a":1,}`:             `at byte 7: expected a string`,
		`["a"]`:                `at byte 0: expected '{'`,
	} {
		s := Scan([]byte(doc))
		err := s.Object(names, func(string) error { _, err := s.Integer(); return err })
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != want {
			t.Errorf("%s: refused with %q, want %q", doc, got, want)
		}
	}
}
