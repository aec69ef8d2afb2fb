package platform

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/pombm/pombm/internal/obs"
	"github.com/pombm/pombm/internal/wire"
)

// The serving end of the agent plane: one answer function behind both
// framings of a call — a POST to the call's path, a frame on /v1/stream —
// and the account of what each costs. protocol.go has the contract.

// Kind names a call. It is the first byte of a request frame's payload, and
// the index of the call's stages in a snapshot.
type Kind uint8

// The agent calls, in frame order. The rotation calls after them are POSTs
// only: a frame that names one is answered like any unknown kind.
const (
	KindRegister Kind = iota + 1
	KindReregister
	KindRelease
	KindWithdraw
	KindTask
	KindTasks
	kindRotatePrepare
	kindRotate
	numKinds
)

// kindPaths is where each call is POSTed.
var kindPaths = [numKinds]string{
	KindRegister:      PathRegister,
	KindReregister:    PathReregister,
	KindRelease:       PathRelease,
	KindWithdraw:      PathWithdraw,
	KindTask:          PathTask,
	KindTasks:         PathTaskBatch,
	kindRotatePrepare: PathRotatePrepare,
	kindRotate:        PathRotate,
}

var kindNames = [numKinds]string{
	"unknown", "register", "reregister", "release", "withdraw", "task", "tasks", "rotate_prepare", "rotate",
}

func (k Kind) String() string {
	if k >= numKinds {
		k = 0
	}
	return kindNames[k]
}

const (
	// agentProtocol is the Upgrade token of /v1/stream.
	agentProtocol = "pombm-agent/1"
	// answerHeader is the status that opens an answer frame's payload: the
	// HTTP status the same call POSTed is answered with, big-endian.
	answerHeader = 2
	// streamIdleLimit is how long the server keeps a stream that carries
	// nothing — NewTransport's IdleConnTimeout, the lifetime an idle
	// keep-alive connection has. It is also what ends the streams of an
	// agent that went away without closing them.
	streamIdleLimit = 90 * time.Second
)

// answer runs the call of kind k whose JSON request is body and leaves the
// JSON answer in buf, returning its HTTP status: 200 with the call's
// response — refusals of a well-formed request ride inside it — or an error
// status with a structured Error. It is everything a call's two framings
// share: the POST handler hands it the request body (which may be buf's own
// bytes: they are decoded before buf is written) and answers status and
// bytes as a response, the frame loop hands it a frame's payload and answers
// them as a frame.
func answer(s *Server, k Kind, body []byte, buf *wire.Buf) int {
	switch k {
	case KindRegister:
		return run(s, k, body, buf, (*Server).Register)
	case KindReregister:
		return run(s, k, body, buf, (*Server).Reregister)
	case KindRelease:
		return run(s, k, body, buf, (*Server).Release)
	case KindWithdraw:
		return run(s, k, body, buf, (*Server).Withdraw)
	case KindTask:
		return run(s, k, body, buf, (*Server).Submit)
	case KindTasks:
		return run(s, k, body, buf, (*Server).SubmitBatch)
	case kindRotatePrepare:
		return run(s, k, body, buf, (*Server).PrepareRotate)
	case kindRotate:
		return run(s, k, body, buf, (*Server).Rotate)
	}
	return unknownKind(buf, k)
}

func unknownKind(buf *wire.Buf, k Kind) int {
	return refuse(buf, http.StatusBadRequest, badRequestError(fmt.Sprintf("platform: bad request: unknown call kind %d", k)))
}

func run[Req, Resp any](s *Server, k Kind, body []byte, buf *wire.Buf, call func(*Server, Req) Resp) int {
	var req Req
	if err := decodeJSON(buf, body, &req); err != nil {
		return refuse(buf, http.StatusBadRequest, badRequestError("platform: bad request: "+err.Error()))
	}
	began := time.Now()
	resp := call(s, req)
	s.hop.kinds[k].core.Record(int64(time.Since(began)))
	buf.Reset()
	if err := encodeJSON(buf, &resp); err != nil {
		return refuse(buf, http.StatusInternalServerError, internalError("platform: encode %s answer: %v", k, err))
	}
	return http.StatusOK
}

// refuse leaves e in buf as the answer and returns status.
func refuse(buf *wire.Buf, status int, e *Error) int {
	buf.Reset()
	buf.Append(func(dst []byte) []byte { return append(e.AppendJSON(dst), '\n') })
	return status
}

// postHandler answers call k POSTed to its path.
func postHandler(s *Server, k Kind) http.HandlerFunc {
	limit := int64(maxRequestBytes)
	if k == kindRotate {
		limit = maxRotateBytes
	}
	return func(w http.ResponseWriter, r *http.Request) {
		began := time.Now()
		cb := readBody(w, r, limit)
		if cb == nil {
			return
		}
		defer wire.Put(cb)
		status := answer(s, k, cb.Bytes(), cb)
		writeBody(w, status, cb.Bytes())
		s.hop.posts.Add(1)
		s.hop.kinds[k].post.Record(int64(time.Since(began)))
	}
}

// streamHandler upgrades a GET /v1/stream that asks for agentProtocol and
// answers the agent calls framed on it until the stream ends.
func streamHandler(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !requireGet(w, r) {
			return
		}
		if r.Header.Get("Upgrade") != agentProtocol {
			writeError(w, http.StatusBadRequest, badRequestError(fmt.Sprintf(
				"platform: bad request: %s serves only an upgrade to %s", PathStream, agentProtocol)))
			return
		}
		// One frame is in service at a time, on this goroutine.
		var (
			kind  Kind
			began time.Time
		)
		err := s.streams.Serve(w, agentProtocol, maxRequestBytes, streamIdleLimit,
			func(in, out []byte) []byte {
				began, kind = time.Now(), 0
				s.hop.frames.Add(1)
				cb := wire.Get()
				defer wire.Put(cb)
				var (
					k      Kind
					body   []byte
					status int
				)
				if len(in) > 0 {
					k, body = Kind(in[0]), in[1:]
				}
				if k > KindTasks { // a POST-only call, or no call of ours
					status = unknownKind(cb, k)
				} else {
					kind, status = k, answer(s, k, body, cb)
				}
				return append(binary.BigEndian.AppendUint16(out, uint16(status)), cb.Bytes()...)
			},
			func() { s.hop.kinds[kind].frame.Record(int64(time.Since(began))) })
		if err != nil {
			writeError(w, http.StatusInternalServerError, internalError("platform: %s upgrade: %v", PathStream, err))
		}
	}
}

// CloseStreams closes every /v1/stream connection the server is answering
// on, refuses later upgrades, and returns once their handlers have.
// http.Server.Shutdown and Close never see an upgraded connection; a process
// that is stopping calls this after them.
func (s *Server) CloseStreams() { s.streams.Close() }

// hopAccount is what the server records about the agent hop: counters, and
// per call kind how long a framed call was in service (frame read → answer
// written), how long a POSTed one was (handler entered → answer written),
// and how long the Server method inside either took. Service minus core is
// the hop's own cost on this side: decode, encode, framing and the write.
type hopAccount struct {
	frames, posts atomic.Int64
	kinds         [numKinds]struct{ frame, post, core obs.Hist }
}

// AgentSnapshot is the server's account of the agent hop at one moment.
// Kinds is indexed by Kind; index 0 holds the frames that named no call.
type AgentSnapshot struct {
	Streams int   // /v1/stream connections open now
	Frames  int64 // frames taken in, the one in service included
	Posts   int64 // calls answered as POSTs
	Kinds   [numKinds]KindSnapshot
}

// KindSnapshot is one call kind's stages. Core covers both framings.
type KindSnapshot struct {
	FrameService, PostService, Core obs.Snapshot
}

// AgentSnapshot reads the server's account of the agent hop.
func (s *Server) AgentSnapshot() *AgentSnapshot {
	snap := &AgentSnapshot{Streams: s.streams.Open(), Frames: s.hop.frames.Load(), Posts: s.hop.posts.Load()}
	for k := range snap.Kinds {
		h := &s.hop.kinds[k]
		snap.Kinds[k] = KindSnapshot{h.frame.Snapshot(), h.post.Snapshot(), h.core.Snapshot()}
	}
	return snap
}

// AgentStats is an AgentSnapshot as /v1/stats prints it: the counters, and
// for every stage that has observations its count, median and tails, keyed
// "<kind>.frame_service", "<kind>.post_service" and "<kind>.core".
type AgentStats struct {
	Streams int                    `json:"agent_streams"`
	Frames  int64                  `json:"agent_frames"`
	Posts   int64                  `json:"agent_posts"`
	Stages  map[string]obs.Summary `json:"stages,omitempty"`
}

func (snap *AgentSnapshot) stats() *AgentStats {
	st := &AgentStats{Streams: snap.Streams, Frames: snap.Frames, Posts: snap.Posts, Stages: map[string]obs.Summary{}}
	for k := range snap.Kinds {
		ks := &snap.Kinds[k]
		for _, stage := range []struct {
			name string
			snap *obs.Snapshot
		}{{"frame_service", &ks.FrameService}, {"post_service", &ks.PostService}, {"core", &ks.Core}} {
			if stage.snap.Count() > 0 {
				st.Stages[Kind(k).String()+"."+stage.name] = stage.snap.Summary()
			}
		}
	}
	return st
}
