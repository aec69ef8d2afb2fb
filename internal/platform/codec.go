package platform

import (
	"reflect"
	"strconv"

	"github.com/pombm/pombm/internal/wire"
)

// The agent hop's codec: for the six agent calls' requests and answers, an
// append encoder that writes what json.Encoder writes for the same value,
// byte for byte, and a scanner that reads the canonical bytes — what the
// encoders write, in any member order, with whitespace and escapes — to the
// value encoding/json would. A document outside that grammar (an unknown or
// case-folded key, a duplicate, a number that is not an integer literal,
// trailing data) is handed to encoding/json whole, so every byte sequence
// decodes, and is refused, exactly as before; FuzzAgentCodec holds both
// directions to encoding/json. Both are built on internal/wire's codec, the
// one the node hop's envelopes are written with.

// canonical is a wire type with its own codec: an agent call's or the publication's.
type canonical interface {
	appendJSON(dst []byte) []byte // the value, as json.Marshal writes it
	scanJSON(doc []byte) error    // doc into a zero value, or an error
}

// encodeJSON appends v to buf as json.Encoder.Encode writes it.
func encodeJSON(buf *wire.Buf, v any) error {
	if c, ok := v.(canonical); ok {
		buf.Append(func(dst []byte) []byte { return append(c.appendJSON(dst), '\n') })
		return nil
	}
	return buf.Encode(v)
}

// decodeJSON decodes doc into v, which points at a zero value, and leaves it
// as buf.UnmarshalFrom would: through v's scanner when it has one and doc is
// canonical, else through encoding/json.
func decodeJSON(buf *wire.Buf, doc []byte, v any) error {
	if c, ok := v.(canonical); ok {
		if c.scanJSON(doc) == nil {
			return nil
		}
		reflect.ValueOf(v).Elem().SetZero() // what the scan filled before it stopped
	}
	return buf.UnmarshalFrom(doc, v)
}

// endOf is err, or End's verdict on what follows a scanned document.
func endOf(s *wire.Scanner, err error) error {
	if err != nil {
		return err
	}
	return s.End()
}

// ---- requests ----

var (
	registerFields = []string{"worker_id", "code", "epoch", "capacity"}
	taskFields     = []string{"task_id", "code", "epoch"}
	batchFields    = []string{"tasks"}
)

// appendReport appends a request of an id, a code and an epoch, all but its
// closing brace: open is the id's key with the brace before it, and the code
// is not omitempty, so a nil one is null.
func appendReport(dst []byte, open, id string, code []byte, epoch int64) []byte {
	dst = wire.AppendString(append(dst, open...), id)
	if code == nil {
		dst = append(dst, `,"code":null`...)
	} else {
		dst = wire.AppendBase64(append(dst, `,"code":`...), code)
	}
	return wire.AppendIntField(dst, `,"epoch":`, epoch)
}

func (r *RegisterRequest) appendJSON(dst []byte) []byte {
	dst = appendReport(dst, `{"worker_id":`, r.WorkerID, r.Code, r.Epoch)
	return append(wire.AppendIntField(dst, `,"capacity":`, int64(r.Capacity)), '}')
}

func (r *ReregisterRequest) appendJSON(dst []byte) []byte {
	return append(appendReport(dst, `{"worker_id":`, r.WorkerID, r.Code, r.Epoch), '}')
}

func (r *ReleaseRequest) appendJSON(dst []byte) []byte {
	dst = wire.AppendString(append(dst, `{"worker_id":`...), r.WorkerID)
	if len(r.Code) > 0 {
		dst = wire.AppendBase64(append(dst, `,"code":`...), r.Code)
	}
	return append(wire.AppendIntField(dst, `,"epoch":`, r.Epoch), '}')
}

func (r *WithdrawRequest) appendJSON(dst []byte) []byte {
	return append(wire.AppendString(append(dst, `{"worker_id":`...), r.WorkerID), '}')
}

func (r *TaskRequest) appendJSON(dst []byte) []byte {
	return append(appendReport(dst, `{"task_id":`, r.TaskID, r.Code, r.Epoch), '}')
}

func (r *TaskBatchRequest) appendJSON(dst []byte) []byte {
	return appendList(append(dst, `{"tasks":`...), r.Tasks, (*TaskRequest).appendJSON)
}

// appendList appends items as the value of a batch's one member, which
// closes with it: null when there are none, as encoding/json writes a nil
// slice.
func appendList[T any](dst []byte, items []T, elem func(*T, []byte) []byte) []byte {
	if items == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(&items[i], dst)
	}
	return append(dst, "]}"...)
}

// scanReport consumes a request object of the members names lists, the
// first of them the id's: every request but a batch is one. A member the
// request has not got is never named, and its pointer may be nil. A null
// member is left zero, as encoding/json leaves it.
func scanReport(s *wire.Scanner, names []string, id *string, code *[]byte, epoch *int64, capacity *int) error {
	return s.Object(names, func(name string) (err error) {
		if s.Null() {
			return nil
		}
		var text []byte
		switch name {
		case names[0]:
			text, err = s.Str()
			*id = string(text)
		case "code":
			// Into an empty slice: "" is a code of no bytes, not none.
			*code, err = s.Base64([]byte{})
		case "epoch":
			*epoch, err = s.Integer()
		case "capacity":
			*capacity, err = s.Int()
		}
		return err
	})
}

func (r *RegisterRequest) scanJSON(doc []byte) error {
	s := wire.Scan(doc)
	return endOf(&s, scanReport(&s, registerFields, &r.WorkerID, &r.Code, &r.Epoch, &r.Capacity))
}

func (r *ReregisterRequest) scanJSON(doc []byte) error {
	s := wire.Scan(doc)
	return endOf(&s, scanReport(&s, registerFields[:3], &r.WorkerID, &r.Code, &r.Epoch, nil))
}

func (r *ReleaseRequest) scanJSON(doc []byte) error {
	s := wire.Scan(doc)
	return endOf(&s, scanReport(&s, registerFields[:3], &r.WorkerID, &r.Code, &r.Epoch, nil))
}

func (r *WithdrawRequest) scanJSON(doc []byte) error {
	s := wire.Scan(doc)
	return endOf(&s, scanReport(&s, registerFields[:1], &r.WorkerID, nil, nil, nil))
}

func (r *TaskRequest) scanJSON(doc []byte) error {
	s := wire.Scan(doc)
	return endOf(&s, scanReport(&s, taskFields, &r.TaskID, &r.Code, &r.Epoch, nil))
}

func (r *TaskBatchRequest) scanJSON(doc []byte) error {
	s := wire.Scan(doc)
	return endOf(&s, s.Object(batchFields, func(string) error {
		if s.Null() {
			return nil
		}
		r.Tasks = []TaskRequest{} // [] is an empty batch, not none
		return s.Array(func() error {
			r.Tasks = append(r.Tasks, TaskRequest{})
			t := &r.Tasks[len(r.Tasks)-1]
			return scanReport(&s, taskFields, &t.TaskID, &t.Code, &t.Epoch, nil)
		})
	}))
}

// ---- answers ----

var (
	errorFields            = []string{"code", "message", "epoch", "retryable"}
	registerResponseFields = []string{"ok", "reason", "error", "parked", "epoch"}
	taskResponseFields     = []string{"assigned", "worker_id", "reason", "error", "epoch"}
	batchResponseFields    = []string{"results"}
)

// AppendJSON appends e as encoding/json writes it: a refusal's error member,
// and the whole body of an answer whose status is not 200, on both hops.
func (e *Error) AppendJSON(dst []byte) []byte {
	dst = wire.AppendString(append(dst, `{"code":`...), e.Code)
	if e.Message != "" {
		dst = wire.AppendString(append(dst, `,"message":`...), e.Message)
	}
	dst = wire.AppendIntField(dst, `,"epoch":`, e.Epoch)
	if e.Retryable {
		dst = append(dst, `,"retryable":true`...)
	}
	return append(dst, '}')
}

// ScanJSON consumes an error object, as AppendJSON writes one, into e.
func (e *Error) ScanJSON(s *wire.Scanner) error {
	return s.Object(errorFields, func(name string) (err error) {
		var text []byte
		switch name {
		case "code":
			text, err = s.Str()
			e.Code = string(text)
		case "message":
			text, err = s.Str()
			e.Message = string(text)
		case "epoch":
			e.Epoch, err = s.Integer()
		case "retryable":
			e.Retryable, err = s.Bool()
		}
		return err
	})
}

// appendVerdict appends the members a refusal adds to an answer.
func appendVerdict(dst []byte, reason string, e *Error) []byte {
	if reason != "" {
		dst = wire.AppendString(append(dst, `,"reason":`...), reason)
	}
	if e != nil {
		dst = e.AppendJSON(append(dst, `,"error":`...))
	}
	return dst
}

// scanVerdict consumes one of the members both answers have: a refusal's
// and the epoch.
func scanVerdict(s *wire.Scanner, name string, reason *string, e **Error, epoch *int64) (err error) {
	var text []byte
	switch name {
	case "reason":
		text, err = s.Str()
		*reason = string(text)
	case "error":
		*e = new(Error)
		err = (*e).ScanJSON(s)
	case "epoch":
		*epoch, err = s.Integer()
	}
	return err
}

func (r *RegisterResponse) appendJSON(dst []byte) []byte {
	dst = appendVerdict(strconv.AppendBool(append(dst, `{"ok":`...), r.OK), r.Reason, r.Err)
	if r.Parked {
		dst = append(dst, `,"parked":true`...)
	}
	return append(wire.AppendIntField(dst, `,"epoch":`, r.Epoch), '}')
}

func (r *TaskResponse) appendJSON(dst []byte) []byte {
	dst = strconv.AppendBool(append(dst, `{"assigned":`...), r.Assigned)
	if r.WorkerID != "" {
		dst = wire.AppendString(append(dst, `,"worker_id":`...), r.WorkerID)
	}
	dst = appendVerdict(dst, r.Reason, r.Err)
	return append(wire.AppendIntField(dst, `,"epoch":`, r.Epoch), '}')
}

func (r *TaskBatchResponse) appendJSON(dst []byte) []byte {
	return appendList(append(dst, `{"results":`...), r.Results, (*TaskResponse).appendJSON)
}

func (r *RegisterResponse) scanJSON(doc []byte) error {
	s := wire.Scan(doc)
	return endOf(&s, s.Object(registerResponseFields, func(name string) (err error) {
		switch name {
		case "ok":
			r.OK, err = s.Bool()
		case "parked":
			r.Parked, err = s.Bool()
		default:
			err = scanVerdict(&s, name, &r.Reason, &r.Err, &r.Epoch)
		}
		return err
	}))
}

// scan consumes one task answer object into r.
func (r *TaskResponse) scan(s *wire.Scanner) error {
	return s.Object(taskResponseFields, func(name string) (err error) {
		switch name {
		case "assigned":
			r.Assigned, err = s.Bool()
		case "worker_id":
			var text []byte
			text, err = s.Str()
			r.WorkerID = string(text)
		default:
			err = scanVerdict(s, name, &r.Reason, &r.Err, &r.Epoch)
		}
		return err
	})
}

func (r *TaskResponse) scanJSON(doc []byte) error {
	s := wire.Scan(doc)
	return endOf(&s, r.scan(&s))
}

func (r *TaskBatchResponse) scanJSON(doc []byte) error {
	s := wire.Scan(doc)
	return endOf(&s, s.Object(batchResponseFields, func(string) error {
		if s.Null() {
			return nil
		}
		r.Results = []TaskResponse{}
		return s.Array(func() error {
			r.Results = append(r.Results, TaskResponse{})
			return r.Results[len(r.Results)-1].scan(&s)
		})
	}))
}
