package cluster

import (
	"encoding/base64"
	"fmt"
	"slices"
	"strconv"
	"unsafe"

	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/wire"
)

// The /v2/node/ops codec: one append encoder and one scanner per direction,
// written on internal/wire's codec against the envelope grammar in
// protocol.go. The encoders are byte-identical to what encoding/json makes
// of the same values (that is what keeps a replayed sub-result byte-exact
// across versions, and it is fuzzed: FuzzOpsCodec); the scanners accept a
// subset of what encoding/json accepts and decode it to the same values.

// ---- encoders ----

// appendOp appends one sub-op of a request envelope.
func appendOp(dst []byte, op *OpRequest) []byte {
	dst = wire.AppendString(append(dst, `{"kind":`...), op.Kind)
	if op.Idem != "" {
		dst = wire.AppendString(append(dst, `,"idem":`...), op.Idem)
	}
	if len(op.Code) > 0 {
		dst = wire.AppendBase64(append(dst, `,"code":`...), op.Code)
	}
	dst = wire.AppendIntField(dst, `,"id":`, int64(op.ID))
	dst = wire.AppendIntField(dst, `,"capacity":`, int64(op.Capacity))
	dst = wire.AppendIntField(dst, `,"level":`, int64(op.Level))
	dst = wire.AppendIntField(dst, `,"epoch":`, op.Epoch)
	if len(op.Codes) > 0 {
		sep := `,"codes":[`
		for _, code := range op.Codes {
			dst = wire.AppendBase64(append(dst, sep...), code)
			sep = `,`
		}
		dst = append(dst, ']')
	}
	return append(wire.AppendIntField(dst, `,"k":`, int64(op.K)), '}')
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
// commit or abort. The replay cache keeps it once for every such entry.
var ackOK = []byte(`{"ok":true}`)

// appendRefusal appends `{"ok":false,"error":{…}` — a refused sub-result or
// envelope up to, not including, its closing fields.
func appendRefusal(dst []byte, e *platform.Error) []byte {
	return e.AppendJSON(append(dst, `{"ok":false,"error":`...))
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

// appendFound appends the `,"found":b}` that closes a remove, pop or peek
// sub-result, refused ones included.
func appendFound(dst []byte, found bool) []byte {
	return append(strconv.AppendBool(append(dst, `,"found":`...), found), '}')
}

// appendRemoved appends remove's sub-result.
func appendRemoved(dst []byte, units int, found bool) []byte {
	return appendFound(wire.AppendIntField(append(dst, `{"ok":true`...), `,"units":`, int64(units)), found)
}

// appendAssigned appends the sub-result of a kind that answers a worker —
// pop and peek — or err's refusal. applied false marks the refusal.
func appendAssigned(dst []byte, id, level int, found bool, err error, epoch int64) (out []byte, applied bool) {
	if err != nil {
		return appendFound(appendRefusal(dst, nodeError(err, epoch)), false), false
	}
	dst = wire.AppendIntField(append(dst, `{"ok":true`...), `,"id":`, int64(id))
	return appendFound(wire.AppendIntField(dst, `,"level":`, int64(level)), found), true
}

// appendStatus appends status's sub-result.
func appendStatus(dst []byte, st *OpResult) []byte {
	dst = wire.AppendIntField(append(dst, `{"ok":true`...), `,"epoch":`, st.Epoch)
	dst = wire.AppendIntField(dst, `,"len":`, int64(st.Len))
	return append(wire.AppendIntField(dst, `,"units":`, int64(st.Units)), '}')
}

// appendMined appends mine's sub-result.
func appendMined(dst []byte, wm *OpResult) []byte {
	dst = wire.AppendIntField(append(dst, `{"ok":true`...), `,"epoch":`, wm.Epoch)
	dst = wire.AppendIntField(dst, `,"pool":`, int64(wm.Pool))
	if len(wm.Own) > 0 {
		key := `,"own":[`
		for _, list := range wm.Own {
			dst = appendCandidates(append(dst, key...), list)
			key = ","
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendCandidates appends list as an array of [id,code,level,cap] arrays.
func appendCandidates(dst []byte, list []hst.Candidate) []byte {
	dst = append(dst, '[')
	for i, c := range list {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, '['), int64(c.ID), 10)
		dst = wire.AppendBase64(append(dst, ','), []byte(c.Code))
		dst = strconv.AppendInt(append(dst, ','), int64(c.Level), 10)
		dst = append(strconv.AppendInt(append(dst, ','), int64(c.Cap), 10), ']')
	}
	return append(dst, ']')
}

// ---- scanners ----

// opKinds lists the kinds Node.Do answers.
var opKinds = [...]string{
	OpInsert, OpAddCapacity, OpRemove, OpPop, OpConsume,
	OpStatus, OpPeek, OpMine, OpCommit, OpAbort,
}

// internKind returns the package's constant for a known op kind, so that a
// decoded op's Kind costs no allocation; an unknown kind is copied for
// Node.Do to refuse by name.
func internKind(text []byte) string {
	for _, kind := range opKinds {
		if string(text) == kind {
			return kind
		}
	}
	return string(text)
}

var opFields = []string{"kind", "idem", "code", "id", "capacity", "level", "epoch", "codes", "k"}

// view is b as a string, without a copy: valid while b's memory is neither
// reused nor written, so only for a callee that does not keep it.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// bytesOf is s's memory as a slice, without a copy, for an encoder that only
// reads it.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// opsReader scans request envelopes — a stream's, one frame after another —
// into ops that copy nothing: an op's idem is a view of the envelope, its
// code and codes views of the reader's base64 scratch. Each scan first grows
// the scratch to hold every code the envelope could carry, so it never
// reallocates under a view. The ops are valid until the next scan, and while
// the envelope's bytes are neither reused nor written.
type opsReader struct {
	ops   []OpRequest
	codes []byte
}

// decode consumes a base64 string into the scratch and returns its view.
func (r *opsReader) decode(s *wire.Scanner) ([]byte, error) {
	start := len(r.codes)
	codes, err := s.Base64(r.codes)
	if err != nil {
		return nil, err
	}
	r.codes = codes
	return codes[start:len(codes):len(codes)], nil
}

// scanOp consumes one sub-op object into op.
func (r *opsReader) scanOp(s *wire.Scanner, op *OpRequest) error {
	return s.Object(opFields, func(name string) (err error) {
		var text []byte
		switch name {
		case "kind":
			text, err = s.Str()
			op.Kind = internKind(text)
		case "idem":
			text, err = s.Str()
			op.Idem = view(text)
		case "code":
			op.Code, err = r.decode(s)
		case "id":
			op.ID, err = s.Int()
		case "capacity":
			op.Capacity, err = s.Int()
		case "level":
			op.Level, err = s.Int()
		case "epoch":
			op.Epoch, err = s.Integer()
		case "codes":
			err = s.Array(func() error {
				code, err := r.decode(s)
				op.Codes = append(op.Codes, code)
				return err
			})
		case "k":
			op.K, err = s.Int()
		}
		return err
	})
}

var opsFields = []string{"ops"}

// scan decodes a request envelope into the reader's ops. It reads the whole
// document before returning anything: an envelope is refused as a whole or
// executed as a whole.
func (r *opsReader) scan(body []byte) ([]OpRequest, error) {
	// A code decodes from a string of the envelope to ¾ of its length or less.
	r.codes = slices.Grow(r.codes[:0], base64.StdEncoding.DecodedLen(len(body)))
	ops, s := r.ops, wire.Scan(body)
	err := s.Object(opsFields, func(string) error {
		return s.Array(func() error {
			ops = append(ops, OpRequest{})
			return r.scanOp(&s, &ops[len(ops)-1])
		})
	})
	r.ops = ops[:0] // a spill to the heap (a window's commits) serves the next frame too
	if err != nil {
		return nil, err
	}
	return ops, s.End()
}

var (
	resultFields   = []string{"ok", "error", "id", "level", "units", "found", "epoch", "len", "pool", "own"}
	responseFields = []string{"ok", "error", "results"}
)

// scanResult consumes one sub-result object into r.
func scanResult(s *wire.Scanner, r *OpResult) error {
	return s.Object(resultFields, func(name string) (err error) {
		switch name {
		case "ok":
			r.OK, err = s.Bool()
		case "error":
			r.Err = new(platform.Error)
			err = r.Err.ScanJSON(s)
		case "id":
			r.ID, err = s.Int()
		case "level":
			r.Level, err = s.Int()
		case "units":
			r.Units, err = s.Int()
		case "found":
			r.Found, err = s.Bool()
		case "epoch":
			r.Epoch, err = s.Integer()
		case "len":
			r.Len, err = s.Int()
		case "pool":
			r.Pool, err = s.Int()
		case "own":
			r.Own, err = scanCandidateLists(s)
		}
		return err
	})
}

// scanCandidateLists consumes a mine answer's own: an array of candidate
// lists, one a code.
func scanCandidateLists(s *wire.Scanner) (lists [][]hst.Candidate, err error) {
	var code []byte // decoding scratch, shared list to list
	err = s.Array(func() error {
		list, err := scanCandidates(s, &code)
		lists = append(lists, list)
		return err
	})
	return lists, err
}

// scanCandidates consumes one candidate list, one of a mine answer's own
// lists: an array of [id,code,level,cap] arrays. code is decoding
// scratch; a candidate keeps a copy. An empty list is left nil.
func scanCandidates(s *wire.Scanner, code *[]byte) (list []hst.Candidate, err error) {
	err = s.Array(func() error {
		var c hst.Candidate
		at := 0
		err := s.Array(func() (err error) {
			switch at++; at {
			case 1:
				c.ID, err = s.Int()
			case 2:
				*code, err = s.Base64((*code)[:0])
				c.Code = hst.Code(*code)
			case 3:
				c.Level, err = s.Int()
			case 4:
				c.Cap, err = s.Int()
			}
			return err
		})
		if err == nil && at != 4 {
			err = s.Errf("a candidate of %d elements, want 4", at)
		}
		list = append(list, c)
		return err
	})
	return list, err
}

// scanOpsResponse decodes a node's answer to the envelope that carried
// batch: a refusal of the whole envelope is returned as refusal; otherwise
// every op's sub-result is in its slot, or err says what was wrong with the
// answer (malformed, or not one result per op).
func scanOpsResponse(body []byte, batch []*batchedOp) (refusal *platform.Error, err error) {
	s := wire.Scan(body)
	results := 0
	if err := s.Object(responseFields, func(name string) (err error) {
		switch name {
		case "ok":
			_, err = s.Bool()
		case "error":
			refusal = new(platform.Error)
			err = refusal.ScanJSON(&s)
		case "results":
			// A refused envelope says "results":null.
			if s.Null() {
				break
			}
			err = s.Array(func() error {
				if results == len(batch) {
					return s.Errf("more than %d results", len(batch))
				}
				results++
				return scanResult(&s, &batch[results-1].res)
			})
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := s.End(); err != nil {
		return nil, err
	}
	if refusal == nil && results != len(batch) {
		return nil, fmt.Errorf("%d results for %d ops", results, len(batch))
	}
	return refusal, nil
}
