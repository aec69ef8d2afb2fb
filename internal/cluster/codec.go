package cluster

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
)

// The /v2/node/ops codec: one append encoder and one scanner per direction,
// written against the envelope grammar in protocol.go. The encoders are
// byte-identical to what encoding/json makes of the same values (that is
// what keeps a replayed sub-result byte-exact across versions, and it is
// fuzzed: FuzzOpsCodec); the scanners accept a subset of what encoding/json
// accepts and decode it to the same values. encoding/json is used for one
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
	if len(op.Codes) > 0 {
		sep := `,"codes":["`
		for _, code := range op.Codes {
			dst = append(base64.StdEncoding.AppendEncode(append(dst, sep...), code), '"')
			sep = `,"`
		}
		dst = append(dst, ']')
	}
	return append(appendIntField(dst, `,"k":`, int64(op.K)), '}')
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

// ackOK is the whole sub-result of an applied insert, add-capacity, consume,
// commit or abort. The replay cache holds this one slice for every such
// entry.
var ackOK = []byte(`{"ok":true}`)

// appendRefusal appends `{"ok":false,"error":{…}` — a refused sub-result or
// envelope up to, not including, its closing fields.
func appendRefusal(dst []byte, e *platform.Error) []byte {
	return appendError(append(dst, `{"ok":false,"error":`...), e)
}

// appendError appends the grammar's error object: also the whole body of an
// answer whose HTTP status is not 200.
func appendError(dst []byte, e *platform.Error) []byte {
	dst = appendString(append(dst, `{"code":`...), e.Code)
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
// add-capacity, consume, commit and abort, and any kind's plain refusal.
// applied false marks a refusal.
func appendAck(dst []byte, err error, epoch int64) (out []byte, applied bool) {
	if err != nil {
		return append(appendRefusal(dst, nodeError(err, epoch)), '}'), false
	}
	return append(dst, ackOK...), true
}

// appendFound appends the `,"found":b}` that closes a remove,
// assign-subtree, min-id or pop-min sub-result, refused ones included.
func appendFound(dst []byte, found bool) []byte {
	return append(strconv.AppendBool(append(dst, `,"found":`...), found), '}')
}

// appendRemoved appends remove's sub-result.
func appendRemoved(dst []byte, units int, found bool) []byte {
	return appendFound(appendIntField(append(dst, `{"ok":true`...), `,"units":`, int64(units)), found)
}

// appendAssigned appends the sub-result of a kind that answers a worker —
// assign-subtree, pop-min, and min-id, which has no level — or err's
// refusal. applied false marks the refusal.
func appendAssigned(dst []byte, id, level int, found bool, err error, epoch int64) (out []byte, applied bool) {
	if err != nil {
		return appendFound(appendRefusal(dst, nodeError(err, epoch)), false), false
	}
	dst = appendIntField(append(dst, `{"ok":true`...), `,"id":`, int64(id))
	return appendFound(appendIntField(dst, `,"level":`, int64(level)), found), true
}

// appendStatus appends status's sub-result.
func appendStatus(dst []byte, st StatusResponse) []byte {
	dst = appendIntField(append(dst, `{"ok":true`...), `,"epoch":`, st.Epoch)
	dst = appendIntField(dst, `,"len":`, int64(st.Len))
	return append(appendIntField(dst, `,"units":`, int64(st.Units)), '}')
}

// appendMined appends mine's sub-result.
func appendMined(dst []byte, wm *engine.WindowMine) []byte {
	dst = appendIntField(append(dst, `{"ok":true`...), `,"epoch":`, wm.Epoch)
	dst = appendIntField(dst, `,"pool":`, int64(wm.Pool))
	dst = appendCandidates(dst, `,"own":[`, wm.Own)
	return append(appendCandidates(dst, `,"pads":[`, wm.Pads), '}')
}

// appendCandidates appends key — `,"name":[` — and lists, each an array of
// [id,code,level,cap] arrays, unless there are none.
func appendCandidates(dst []byte, key string, lists [][]hst.Candidate) []byte {
	if len(lists) == 0 {
		return dst
	}
	for _, list := range lists {
		dst = append(append(dst, key...), '[')
		key = ","
		for i, c := range list {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, '['), int64(c.ID), 10)
			dst = base64.StdEncoding.AppendEncode(append(dst, `,"`...), []byte(c.Code))
			dst = strconv.AppendInt(append(dst, `",`...), int64(c.Level), 10)
			dst = append(strconv.AppendInt(append(dst, ','), int64(c.Cap), 10), ']')
		}
		dst = append(dst, ']')
	}
	return append(dst, ']')
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

// array consumes an array, calling elem with the cursor at each element.
func (s *scanner) array(elem func() error) error {
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

// field is more for an object of known fields: it also consumes the next
// member's key and colon, leaving the cursor at the value, and returns the
// key as it is spelled in names — refusing one that is not there, and one
// this object (whose seen it is handed) has shown before.
func (s *scanner) field(first bool, names []string, seen *uint16) (name string, ok bool, err error) {
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

// opKinds lists the kinds execOp answers.
var opKinds = [...]string{
	OpInsert, OpAddCapacity, OpRemove, OpAssignSubtree, OpConsume,
	OpStatus, OpMinID, OpPopMin, OpMine, OpCommit, OpAbort,
}

// internKind returns the package's constant for a known op kind, so that a
// decoded op's Kind costs no allocation; an unknown kind is copied for
// execOp to refuse by name.
func internKind(text []byte) string {
	for _, kind := range opKinds {
		if string(text) == kind {
			return kind
		}
	}
	return string(text)
}

var opFields = []string{"kind", "idem", "code", "id", "capacity", "epoch", "codes", "k"}

// code consumes a string token of standard base64 and appends what it
// decodes to onto dst, as encoding/json fills a []byte: strictly, "" an
// empty code.
func (s *scanner) code(dst []byte) ([]byte, error) {
	text, err := s.str()
	if err != nil {
		return nil, err
	}
	if dst, err = base64.StdEncoding.AppendDecode(dst, text); err != nil {
		return nil, s.errf("code: %v", err)
	}
	return dst, nil
}

// op consumes one sub-op object into op.
func (s *scanner) op(op *OpRequest) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	var seen uint16
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
			op.Code, err = s.code(nil)
		case "id":
			op.ID, err = s.int()
		case "capacity":
			op.Capacity, err = s.int()
		case "epoch":
			op.Epoch, err = s.integer()
		case "codes":
			err = s.array(func() error {
				code, err := s.code(nil)
				op.Codes = append(op.Codes, code)
				return err
			})
		case "k":
			op.K, err = s.int()
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
	var seen uint16
	for first := true; ; first = false {
		_, ok, err := s.field(first, []string{"ops"}, &seen)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := s.array(func() error {
			ops = append(ops, OpRequest{})
			return s.op(&ops[len(ops)-1])
		}); err != nil {
			return nil, err
		}
	}
	return ops, s.end()
}

var (
	errorFields    = []string{"code", "message", "epoch", "retryable"}
	resultFields   = []string{"ok", "error", "id", "level", "units", "found", "epoch", "len", "pool", "own", "pads"}
	responseFields = []string{"ok", "error", "results"}
)

// refusal consumes a platform.Error object into e.
func (s *scanner) refusal(e *platform.Error) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	var seen uint16
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
	var seen uint16
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
		case "epoch":
			r.Epoch, err = s.integer()
		case "len":
			r.Len, err = s.int()
		case "pool":
			r.Pool, err = s.int()
		case "own":
			r.Own, err = s.candidates()
		case "pads":
			r.Pads, err = s.candidates()
		}
		if err != nil {
			return err
		}
	}
}

// candidates consumes the lists of a mine answer's own or pads: an array of
// arrays of [id,code,level,cap] arrays. An empty list is left nil.
func (s *scanner) candidates() (lists [][]hst.Candidate, err error) {
	var code []byte // decoding scratch: a candidate keeps a copy
	err = s.array(func() error {
		var list []hst.Candidate
		err := s.array(func() error {
			var c hst.Candidate
			at := 0
			err := s.array(func() (err error) {
				switch at++; at {
				case 1:
					c.ID, err = s.int()
				case 2:
					code, err = s.code(code[:0])
					c.Code = hst.Code(code)
				case 3:
					c.Level, err = s.int()
				case 4:
					c.Cap, err = s.int()
				}
				return err
			})
			if err == nil && at != 4 {
				err = s.errf("a candidate of %d elements, want 4", at)
			}
			list = append(list, c)
			return err
		})
		lists = append(lists, list)
		return err
	})
	return lists, err
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
	var seen uint16
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
			err = s.array(func() error {
				if results == len(batch) {
					return s.errf("more than %d results", len(batch))
				}
				results++
				return s.result(&batch[results-1].res)
			})
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
