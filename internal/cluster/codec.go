package cluster

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"github.com/pombm/pombm/internal/platform"
)

// The /v2/node/ops codec: one append encoder and one scanner per direction,
// written against the envelope grammar in protocol.go. The encoders are
// byte-identical to what encoding/json made of the same values (that is
// what keeps a replayed sub-result byte-exact across versions, and it is
// fuzzed: FuzzOpsCodec); the scanners accept a subset of what encoding/json
// accepted and decode it to the same values. encoding/json is used for one
// thing only: unquoting a string token that is not plain ASCII.

// ---- encoders ----

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json writes one
// with HTML escaping on (its default): short escapes for the five control
// characters that have one, \u00XX for the rest and for <, > and &,
// \ufffd for a byte that is not UTF-8, and U+2028/U+2029 escaped.
func appendString(dst []byte, s string) []byte {
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

// appendIntField appends `,"name":v` unless v is zero (omitempty). key is
// the literal `,"name":`.
func appendIntField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendOp appends one sub-op of a request envelope.
func appendOp(dst []byte, op *OpRequest) []byte {
	dst = appendString(append(dst, `{"kind":`...), op.Kind)
	if op.Idem != "" {
		dst = appendString(append(dst, `,"idem":`...), op.Idem)
	}
	if len(op.Code) > 0 {
		// The standard alphabet holds nothing appendString would escape.
		dst = base64.StdEncoding.AppendEncode(append(dst, `,"code":"`...), op.Code)
		dst = append(dst, '"')
	}
	dst = appendIntField(dst, `,"id":`, int64(op.ID))
	dst = appendIntField(dst, `,"capacity":`, int64(op.Capacity))
	dst = appendIntField(dst, `,"epoch":`, op.Epoch)
	return append(dst, '}')
}

// appendOpsRequest appends the request envelope carrying batch's ops, in
// order, newline-terminated as json.Encoder leaves it.
func appendOpsRequest(dst []byte, batch []*batchedOp) []byte {
	dst = append(dst, `{"ops":[`...)
	for i, bo := range batch {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendOp(dst, &bo.op)
	}
	return append(dst, "]}\n"...)
}

// ackOK is the whole sub-result of an applied insert, add-capacity or
// consume. The replay cache holds this one slice for every such entry.
var ackOK = []byte(`{"ok":true}`)

// appendRefusal appends `{"ok":false,"error":{…}` — a refused sub-result or
// envelope up to, not including, its closing fields.
func appendRefusal(dst []byte, e *platform.Error) []byte {
	dst = appendString(append(dst, `{"ok":false,"error":{"code":`...), e.Code)
	if e.Message != "" {
		dst = appendString(append(dst, `,"message":`...), e.Message)
	}
	dst = appendIntField(dst, `,"epoch":`, e.Epoch)
	if e.Retryable {
		dst = append(dst, `,"retryable":true`...)
	}
	return append(dst, '}')
}

// appendAck appends a nodeAck sub-result: the answer of insert,
// add-capacity and consume. applied false marks a refusal.
func appendAck(dst []byte, err error, epoch int64) (out []byte, applied bool) {
	if err != nil {
		return append(appendRefusal(dst, nodeError(err, epoch)), '}'), false
	}
	return append(dst, ackOK...), true
}

// appendFound appends the `,"found":b}` that closes a remove or
// assign-subtree sub-result, refused ones included.
func appendFound(dst []byte, found bool) []byte {
	return append(strconv.AppendBool(append(dst, `,"found":`...), found), '}')
}

// appendRemoved appends remove's sub-result.
func appendRemoved(dst []byte, units int, found bool) []byte {
	return appendFound(appendIntField(append(dst, `{"ok":true`...), `,"units":`, int64(units)), found)
}

// appendAssigned appends assign-subtree's sub-result.
func appendAssigned(dst []byte, id, level int, found bool) []byte {
	dst = appendIntField(append(dst, `{"ok":true`...), `,"id":`, int64(id))
	return appendFound(appendIntField(dst, `,"level":`, int64(level)), found)
}

// ---- scanners ----

// scanner is a cursor over one JSON document. Its methods skip leading
// whitespace, consume one token or construct, and fail with the byte offset
// they stopped at.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) errf(format string, args ...any) error {
	return fmt.Errorf("at byte %d: %s", s.i, fmt.Sprintf(format, args...))
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// next skips whitespace and consumes c if it is the next byte.
func (s *scanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) expect(c byte) error {
	if !s.next(c) {
		return s.errf("expected %q", c)
	}
	return nil
}

// more steps to the next element of an array or object whose opening
// bracket is consumed — past the comma every element but the first needs —
// or past closer, reporting false.
func (s *scanner) more(first bool, closer byte) (bool, error) {
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

// field is more for an object of known fields: it also consumes the next
// member's key and colon, leaving the cursor at the value, and returns the
// key as it is spelled in names — refusing one that is not there, and one
// this object (whose seen it is handed) has shown before.
func (s *scanner) field(first bool, names []string, seen *uint8) (name string, ok bool, err error) {
	if ok, err = s.more(first, '}'); !ok {
		return "", false, err
	}
	key, err := s.str()
	if err != nil {
		return "", false, err
	}
	for i, name := range names {
		if string(key) != name {
			continue
		}
		if *seen&(1<<i) != 0 {
			return "", false, s.errf("duplicate field %q", name)
		}
		*seen |= 1 << i
		err = s.expect(':')
		return name, err == nil, err
	}
	return "", false, s.errf("unknown field %q", key)
}

// end requires that only whitespace follows.
func (s *scanner) end() error {
	if s.ws(); s.i < len(s.b) {
		return s.errf("data after the envelope")
	}
	return nil
}

// str consumes a string token and returns its value. A token of plain
// printable ASCII is returned as a slice of the document; any other —
// escapes, bytes past ASCII (which may not be UTF-8) — is unquoted by
// encoding/json into fresh memory.
func (s *scanner) str() ([]byte, error) {
	if !s.next('"') {
		return nil, s.errf("expected a string")
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
				return nil, s.errf("string: %v", err)
			}
			return []byte(v), nil
		case c == '\\':
			plain = false
			s.i++ // whatever is escaped, it does not close the string
		case c < ' ':
			return nil, s.errf("control character in a string")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	return nil, s.errf("unterminated string")
}

// integer consumes a JSON number that is an integer literal in int64 range.
func (s *scanner) integer() (int64, error) {
	neg := s.next('-')
	start := s.i
	var mag uint64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if mag > (1<<63-d)/10 {
			return 0, s.errf("integer out of range")
		}
		mag = mag*10 + d
	}
	switch n := s.i - start; {
	case n == 0:
		return 0, s.errf("expected an integer")
	case n > 1 && s.b[start] == '0':
		return 0, s.errf("integer with a leading zero")
	case s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E'):
		return 0, s.errf("number is not an integer literal")
	case mag == 1<<63 && !neg:
		return 0, s.errf("integer out of range")
	}
	if neg {
		return -int64(mag), nil
	}
	return int64(mag), nil
}

// int is integer narrowed to the platform's int.
func (s *scanner) int() (int, error) {
	v, err := s.integer()
	if err == nil && int64(int(v)) != v {
		err = s.errf("integer out of range")
	}
	return int(v), err
}

func (s *scanner) bool() (bool, error) {
	s.ws()
	for _, lit := range [...]string{"true", "false"} {
		if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
			s.i += len(lit)
			return lit == "true", nil
		}
	}
	return false, s.errf("expected true or false")
}

// internKind returns the package's constant for a known op kind, so that a
// decoded op's Kind costs no allocation; an unknown kind is copied for
// execOp to refuse by name.
func internKind(text []byte) string {
	switch string(text) {
	case OpInsert:
		return OpInsert
	case OpAddCapacity:
		return OpAddCapacity
	case OpRemove:
		return OpRemove
	case OpAssignSubtree:
		return OpAssignSubtree
	case OpConsume:
		return OpConsume
	}
	return string(text)
}

var opFields = []string{"kind", "idem", "code", "id", "capacity", "epoch"}

// op consumes one sub-op object into op.
func (s *scanner) op(op *OpRequest) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	var seen uint8
	for first := true; ; first = false {
		name, ok, err := s.field(first, opFields, &seen)
		if !ok {
			return err
		}
		var text []byte
		switch name {
		case "kind":
			text, err = s.str()
			op.Kind = internKind(text)
		case "idem":
			text, err = s.str()
			op.Idem = string(text)
		case "code":
			if text, err = s.str(); err == nil {
				// As encoding/json fills a []byte: strict standard base64,
				// "" decoding to an empty code.
				op.Code = make([]byte, base64.StdEncoding.DecodedLen(len(text)))
				var n int
				if n, err = base64.StdEncoding.Decode(op.Code, text); err != nil {
					err = s.errf("code: %v", err)
				}
				op.Code = op.Code[:n]
			}
		case "id":
			op.ID, err = s.int()
		case "capacity":
			op.Capacity, err = s.int()
		case "epoch":
			op.Epoch, err = s.integer()
		}
		if err != nil {
			return err
		}
	}
}

// scanOps decodes a request envelope, appending its sub-ops to ops. It
// reads the whole document before returning anything: an envelope is
// refused as a whole or executed as a whole.
func scanOps(body []byte, ops []OpRequest) ([]OpRequest, error) {
	s := scanner{b: body}
	if err := s.expect('{'); err != nil {
		return nil, err
	}
	var seen uint8
	for first := true; ; first = false {
		_, ok, err := s.field(first, []string{"ops"}, &seen)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := s.expect('['); err != nil {
			return nil, err
		}
		for first := true; ; first = false {
			ok, err := s.more(first, ']')
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			ops = append(ops, OpRequest{})
			if err := s.op(&ops[len(ops)-1]); err != nil {
				return nil, err
			}
		}
	}
	return ops, s.end()
}

var (
	errorFields    = []string{"code", "message", "epoch", "retryable"}
	resultFields   = []string{"ok", "error", "id", "level", "units", "found"}
	responseFields = []string{"ok", "error", "results"}
)

// refusal consumes a platform.Error object into e.
func (s *scanner) refusal(e *platform.Error) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	var seen uint8
	for first := true; ; first = false {
		name, ok, err := s.field(first, errorFields, &seen)
		if !ok {
			return err
		}
		var text []byte
		switch name {
		case "code":
			text, err = s.str()
			e.Code = string(text)
		case "message":
			text, err = s.str()
			e.Message = string(text)
		case "epoch":
			e.Epoch, err = s.integer()
		case "retryable":
			e.Retryable, err = s.bool()
		}
		if err != nil {
			return err
		}
	}
}

// result consumes one sub-result object into r.
func (s *scanner) result(r *opResult) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	var seen uint8
	for first := true; ; first = false {
		name, ok, err := s.field(first, resultFields, &seen)
		if !ok {
			return err
		}
		switch name {
		case "ok":
			r.OK, err = s.bool()
		case "error":
			r.Err = new(platform.Error)
			err = s.refusal(r.Err)
		case "id":
			r.ID, err = s.int()
		case "level":
			r.Level, err = s.int()
		case "units":
			r.Units, err = s.int()
		case "found":
			r.Found, err = s.bool()
		}
		if err != nil {
			return err
		}
	}
}

// scanOpsResponse decodes a node's answer to the envelope that carried
// batch: a refusal of the whole envelope is returned as refusal; otherwise
// every op's sub-result is in its slot, or err says what was wrong with the
// answer (malformed, or not one result per op).
func scanOpsResponse(body []byte, batch []*batchedOp) (refusal *platform.Error, err error) {
	s := scanner{b: body}
	if err := s.expect('{'); err != nil {
		return nil, err
	}
	var seen uint8
	results := 0
	for first := true; ; first = false {
		name, ok, err := s.field(first, responseFields, &seen)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch name {
		case "ok":
			_, err = s.bool()
		case "error":
			refusal = new(platform.Error)
			err = s.refusal(refusal)
		case "results":
			// A refused envelope says "results":null.
			if s.ws(); len(s.b)-s.i >= 4 && string(s.b[s.i:s.i+4]) == "null" {
				s.i += 4
				break
			}
			if err = s.expect('['); err != nil {
				break
			}
			for first := true; ; first = false {
				if ok, err = s.more(first, ']'); !ok {
					break
				}
				if results == len(batch) {
					return nil, s.errf("more than %d results", len(batch))
				}
				if err = s.result(&batch[results].res); err != nil {
					break
				}
				results++
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if err := s.end(); err != nil {
		return nil, err
	}
	if refusal == nil && results != len(batch) {
		return nil, fmt.Errorf("%d results for %d ops", results, len(batch))
	}
	return refusal, nil
}
