package wire

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The hand codec both tiers write their hot messages with (the node hop's
// /v2/node/ops envelopes, the agent hop's six /v1 calls): append encoders
// that write what encoding/json writes for the same value, byte for byte,
// and a Scanner that reads a subset of what encoding/json reads, to the same
// value. A protocol built on them states its own grammar and holds it to
// encoding/json with a fuzzed differential; encoding/json is used here for
// one thing only, unquoting a string token that is not plain ASCII.

// ---- encoders ----

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string the way encoding/json writes one
// with HTML escaping on (its default): short escapes for the five control
// characters that have one, \u00XX for the rest and for <, > and &,
// \ufffd for a byte that is not UTF-8, and U+2028/U+2029 escaped.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendBase64 appends b as encoding/json writes a []byte: a string of
// standard base64, whose alphabet holds nothing AppendString would escape.
func AppendBase64(dst, b []byte) []byte {
	return append(base64.StdEncoding.AppendEncode(append(dst, '"'), b), '"')
}

// AppendIntField appends `,"name":v` unless v is zero (omitempty). key is
// the literal `,"name":`.
func AppendIntField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form (e-7, not e-07) below 1e-6
// and from 1e21 up. encoding/json refuses a NaN or an infinity; this writes
// one as strconv does, which no JSON reader takes.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// ---- scanner ----

// Scanner is a cursor over one JSON document. Its methods skip leading
// whitespace, consume one token or construct, and fail with the byte offset
// they stopped at.
type Scanner struct {
	b []byte
	i int
}

// Scan returns a Scanner at the start of doc, which it only reads.
func Scan(doc []byte) Scanner { return Scanner{b: doc} }

// Errf is an error at the cursor.
func (s *Scanner) Errf(format string, args ...any) error {
	return fmt.Errorf("at byte %d: %s", s.i, fmt.Sprintf(format, args...))
}

// ws skips JSON whitespace.
func (s *Scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// next skips whitespace and consumes c if it is the next byte.
func (s *Scanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// expect is next that fails when c is not next.
func (s *Scanner) expect(c byte) error {
	if !s.next(c) {
		return s.Errf("expected %q", c)
	}
	return nil
}

// more steps to the next element of an array or object whose opening
// bracket is consumed — past the comma every element but the first needs —
// or past closer, reporting false.
func (s *Scanner) more(first bool, closer byte) (bool, error) {
	if s.next(closer) {
		return false, nil
	}
	if !first {
		if err := s.expect(','); err != nil {
			return false, err
		}
	}
	return true, nil
}

// Array consumes an array, calling elem with the cursor at each element.
func (s *Scanner) Array(elem func() error) error {
	if err := s.expect('['); err != nil {
		return err
	}
	for first := true; ; first = false {
		if ok, err := s.more(first, ']'); !ok {
			return err
		}
		if err := elem(); err != nil {
			return err
		}
	}
}

// Object consumes an object whose members are named in names (at most 16),
// calling member with the cursor at each value and the name as it is
// spelled in names. A key that is not there is refused, and so is one the
// object has shown before.
func (s *Scanner) Object(names []string, member func(name string) error) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	var seen uint16
	for first := true; ; first = false {
		if ok, err := s.more(first, '}'); !ok {
			return err
		}
		key, err := s.Str()
		if err != nil {
			return err
		}
		i := 0
		for i < len(names) && string(key) != names[i] {
			i++
		}
		switch {
		case i == len(names):
			return s.Errf("unknown field %q", key)
		case seen&(1<<i) != 0:
			return s.Errf("duplicate field %q", names[i])
		}
		seen |= 1 << i
		if err := s.expect(':'); err != nil {
			return err
		}
		if err := member(names[i]); err != nil {
			return err
		}
	}
}

// End requires that only whitespace follows the document (to both tiers,
// an envelope).
func (s *Scanner) End() error {
	if s.ws(); s.i < len(s.b) {
		return s.Errf("data after the envelope")
	}
	return nil
}

// Null consumes a null literal if one is next.
func (s *Scanner) Null() bool {
	if s.ws(); len(s.b)-s.i >= 4 && string(s.b[s.i:s.i+4]) == "null" {
		s.i += 4
		return true
	}
	return false
}

// Str consumes a string token and returns its value. A token of plain
// printable ASCII is returned as a slice of the document; any other —
// escapes, bytes past ASCII (which may not be UTF-8) — is unquoted by
// encoding/json into fresh memory.
func (s *Scanner) Str() ([]byte, error) {
	if !s.next('"') {
		return nil, s.Errf("expected a string")
	}
	start, plain := s.i, true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			if plain {
				return s.b[start : s.i-1], nil
			}
			var v string
			if err := json.Unmarshal(s.b[start-1:s.i], &v); err != nil {
				return nil, s.Errf("string: %v", err)
			}
			return []byte(v), nil
		case c == '\\':
			plain = false
			s.i++ // whatever is escaped, it does not close the string
		case c < ' ':
			return nil, s.Errf("control character in a string")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	return nil, s.Errf("unterminated string")
}

// Base64 consumes a string token of standard base64 and appends what it
// decodes to onto dst, as encoding/json fills a []byte: strictly.
func (s *Scanner) Base64(dst []byte) ([]byte, error) {
	text, err := s.Str()
	if err != nil {
		return nil, err
	}
	if dst, err = base64.StdEncoding.AppendDecode(dst, text); err != nil {
		return nil, s.Errf("code: %v", err)
	}
	return dst, nil
}

// Integer consumes a JSON number that is an integer literal in int64 range.
func (s *Scanner) Integer() (int64, error) {
	neg := s.next('-')
	start := s.i
	var mag uint64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if mag > (1<<63-d)/10 {
			return 0, s.Errf("integer out of range")
		}
		mag = mag*10 + d
	}
	switch n := s.i - start; {
	case n == 0:
		return 0, s.Errf("expected an integer")
	case n > 1 && s.b[start] == '0':
		return 0, s.Errf("integer with a leading zero")
	case s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E'):
		return 0, s.Errf("number is not an integer literal")
	case mag == 1<<63 && !neg:
		return 0, s.Errf("integer out of range")
	}
	if neg {
		return -int64(mag), nil
	}
	return int64(mag), nil
}

// digits consumes a run of decimal digits and reports its length.
func (s *Scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// Float consumes a JSON number — exactly the grammar's: an optional minus,
// no leading zero, digits on both sides of a point, an exponent with an
// optional sign — to the float64 encoding/json fills. One past float64's
// range is refused, as encoding/json refuses it.
func (s *Scanner) Float() (float64, error) {
	s.ws()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	n := s.digits()
	ok := n == 1 || (n > 1 && s.b[s.i-n] != '0')
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		ok = s.digits() > 0 && ok
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		if s.i++; s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		ok = s.digits() > 0 && ok
	}
	if !ok {
		return 0, s.Errf("malformed number")
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	if err != nil {
		return 0, s.Errf("number out of range")
	}
	return f, nil
}

// Int is Integer narrowed to the platform's int.
func (s *Scanner) Int() (int, error) {
	v, err := s.Integer()
	if err == nil && int64(int(v)) != v {
		err = s.Errf("integer out of range")
	}
	return int(v), err
}

// Bool consumes true or false.
func (s *Scanner) Bool() (bool, error) {
	s.ws()
	for _, lit := range [...]string{"true", "false"} {
		if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
			s.i += len(lit)
			return lit == "true", nil
		}
	}
	return false, s.Errf("expected true or false")
}
