package platform

import (
	"errors"
	"fmt"

	"github.com/pombm/pombm/internal/engine"
	"github.com/pombm/pombm/internal/privacy"
)

// The structured error taxonomy of the versioned wire protocol. Every
// refusal a server (or coordinator) emits carries an *Error alongside the
// legacy Reason string: machine-readable code, the epoch the refusing side
// was serving where relevant, and whether retrying can help. Clients match
// with errors.Is against the sentinel errors below instead of string
// matching on Reason.

// Error codes. The set is closed on the server side but clients must
// tolerate unknown codes (treat them as non-retryable failures).
const (
	// CodeStaleEpoch: the request was built under a rotated-away
	// publication. Retryable after re-fetching the publication.
	CodeStaleEpoch = "stale_epoch"
	// CodeBudgetExhausted: the worker's lifetime ε budget cannot afford
	// another fresh report.
	CodeBudgetExhausted = "budget_exhausted"
	// CodeParked: the worker is terminally parked (its budget ran out).
	CodeParked = "parked"
	// CodeNoWorkers: no worker is available for the task.
	CodeNoWorkers = "no_workers"
	// CodeBadRequest: malformed request (bad code, unknown worker, invalid
	// capacity, undecodable body).
	CodeBadRequest = "bad_request"
	// CodeConflict: the request is valid but the server's state refuses it
	// (duplicate registration, worker not assigned, nothing staged).
	CodeConflict = "conflict"
	// CodeMethodNotAllowed: wrong HTTP method for the endpoint.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeUnsupportedMedia: request body is not application/json.
	CodeUnsupportedMedia = "unsupported_media_type"
	// CodeUnavailable: a backend (or the transport to it) failed; the
	// request may have had no effect. Retryable.
	CodeUnavailable = "unavailable"
	// CodeInternal: the server failed in a way retrying will not fix.
	CodeInternal = "internal"
)

// Sentinel errors clients match with errors.Is.
var (
	// ErrStaleEpoch reports a request refused as built under a rotated-away
	// epoch.
	ErrStaleEpoch = errors.New("platform: stale epoch")
	// ErrBudgetExhausted reports a worker whose lifetime ε budget cannot
	// afford another fresh report. It is privacy's sentinel, so a refusal
	// from an accountant and one from a server match alike.
	ErrBudgetExhausted = privacy.ErrBudgetExhausted
	// ErrParked reports a worker terminally parked. A parked worker's
	// budget is by definition exhausted, so a parked Error also matches
	// ErrBudgetExhausted.
	ErrParked = errors.New("platform: worker parked")
	// ErrNoWorkers reports a task refused because no worker is available.
	ErrNoWorkers = errors.New("platform: no available workers")
	// ErrUnavailable reports a backend or transport failure.
	ErrUnavailable = errors.New("platform: backend unavailable")
)

// Error is the structured wire error: it travels as JSON inside response
// envelopes (and as the body of non-200 HTTP responses) and implements
// error, so a decoded response surfaces it directly.
type Error struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message,omitempty"`
	// Epoch is the epoch the refusing side was serving, when relevant
	// (always set for stale_epoch).
	Epoch int64 `json:"epoch,omitempty"`
	// Retryable reports whether the same request can succeed later —
	// possibly after repair the code implies (stale_epoch: re-fetch the
	// publication first).
	Retryable bool `json:"retryable,omitempty"`
}

func (e *Error) Error() string {
	if e == nil {
		return "<nil>"
	}
	if e.Message != "" {
		return e.Message
	}
	return "platform: " + e.Code
}

// Is maps wire codes onto the package sentinels for errors.Is.
func (e *Error) Is(target error) bool {
	if e == nil {
		return false
	}
	switch target {
	case ErrStaleEpoch:
		return e.Code == CodeStaleEpoch
	case ErrParked:
		return e.Code == CodeParked
	case ErrBudgetExhausted:
		// Parking is budget exhaustion made permanent.
		return e.Code == CodeBudgetExhausted || e.Code == CodeParked
	case ErrNoWorkers:
		return e.Code == CodeNoWorkers
	case ErrUnavailable:
		return e.Code == CodeUnavailable
	}
	return false
}

// staleEpochError pairs staleEpochReason with its structured form.
func staleEpochError(got, cur int64) *Error {
	return &Error{Code: CodeStaleEpoch, Message: staleEpochReason(got, cur), Epoch: cur, Retryable: true}
}

// parkedError pairs parkedReason with its structured form.
func parkedError(workerID string) *Error {
	return &Error{Code: CodeParked, Message: parkedReason(workerID)}
}

// noWorkersError is the structured refusal for an unservable task.
func noWorkersError() *Error {
	return &Error{Code: CodeNoWorkers, Message: "platform: no available workers", Retryable: true}
}

// unavailableError wraps a transport or backend failure.
func unavailableError(err error) *Error {
	return &Error{Code: CodeUnavailable, Message: err.Error(), Retryable: true}
}

// badRequestError is the structured refusal for a malformed request.
func badRequestError(msg string) *Error {
	return &Error{Code: CodeBadRequest, Message: msg}
}

// conflictError is the structured refusal for a stateful conflict.
func conflictError(msg string) *Error {
	return &Error{Code: CodeConflict, Message: msg}
}

// AsError extracts a structured *Error from any error (unwrapping), or
// wraps a plain error by classification so callers always have one. Typed
// engine staleness maps to stale_epoch.
func AsError(err error, epoch int64) *Error {
	if err == nil {
		return nil
	}
	var pe *Error
	if errors.As(err, &pe) {
		return pe
	}
	if errors.Is(err, ErrStaleEpoch) || errors.Is(err, engine.ErrStaleEpoch) {
		return &Error{Code: CodeStaleEpoch, Message: err.Error(), Epoch: epoch, Retryable: true}
	}
	return &Error{Code: CodeBadRequest, Message: err.Error()}
}

var _ error = (*Error)(nil)

// errorf builds an internal-code Error.
func internalError(format string, args ...any) *Error {
	return &Error{Code: CodeInternal, Message: fmt.Sprintf(format, args...)}
}
