package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/pombm/pombm/internal/platform"
	"github.com/pombm/pombm/internal/wire"
)

// The /v2/node/ops stream (protocol.go has the contract). A POST
// /v2/node/ops that asks to upgrade to opsProtocol is answered 101 and its
// connection then carries frames in both directions — internal/wire's
// framing and both of its ends, one envelope of the ops grammar a frame —
// one answer frame per request frame, in order. What is the cluster's own is
// here: the protocol's name and bounds, what answers a frame, and how a
// stream's failures map onto the retry taxonomy.

const (
	// opsProtocol is the Upgrade token of the frame stream.
	opsProtocol = "pombm-ops/1"
	// maxFrame bounds a frame's payload, either direction: about sixty times
	// a full maxOpsPerEnvelope envelope. A longer one is refused by closing
	// the stream before any of it is buffered.
	maxFrame = 1 << 20
	// maxMineAnswer bounds instead the answer to an envelope that carries a
	// mine, the one frame whose size a deployment sets: about 70 B × codes
	// × k — 144 KB for a full window at the default k = 8,
	// past maxFrame near k = 58, and -policy batch-optimal:k=<n> has no
	// ceiling. A longer answer is a transport failure, and the window answers
	// unmatched.
	maxMineAnswer = 64 << 20
)

// opsIdleLimit is how long a node keeps a stream that carries nothing —
// platform.NewTransport's IdleConnTimeout, the lifetime an idle keep-alive
// connection has. http.Server.Close and Shutdown never see a hijacked
// connection, so the limit is also what ends the streams of a coordinator
// that went away without closing them. A variable only so that a test can
// shorten it; a stream reads it once, when it starts.
var opsIdleLimit = 90 * time.Second

// serveOps serves /v2/node/ops: a POST that asks to upgrade to opsProtocol
// is answered 101 and then framed until the stream ends (see
// wire.Streams.Serve); any other POST is refused, as there is no other
// framing. answerOps answers each frame. The stream's one opsReader scans
// every frame: a frame's bytes stay put until it is answered, so its ops are
// views of them and of the reader's scratch.
func serveOps(n *Node, cache *wire.ReplayCache) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !postOnly(w, r) {
			return
		}
		if r.Header.Get("Upgrade") != opsProtocol {
			writeNodeJSON(w, http.StatusBadRequest, &platform.Error{Code: platform.CodeBadRequest,
				Message: fmt.Sprintf("cluster: bad request: %s serves only an upgrade to %s", PathNodeOps, opsProtocol)})
			return
		}
		var few [4]OpRequest // most envelopes carry one op; a window's commits spill to the heap
		rd := opsReader{ops: few[:0]}
		err := n.streams.Serve(w, opsProtocol, maxFrame, opsIdleLimit, func(in, out []byte) []byte {
			ops, scanErr := rd.scan(in)
			return answerOps(n, cache, ops, scanErr, out)
		}, nil)
		if err != nil {
			writeNodeJSON(w, http.StatusInternalServerError, &platform.Error{
				Code: platform.CodeInternal, Message: "cluster: " + PathNodeOps + " upgrade: " + err.Error(),
			})
		}
	}
}

// CloseStreams closes every /v2/node/ops stream the node is answering on,
// refuses later upgrades, and returns once their handlers have.
// http.Server.Shutdown and Close never see an upgraded connection; a process
// that is stopping calls this after them.
func (n *Node) CloseStreams() { n.streams.Close() }

// dialOps opens a stream under the op deadline d. A refusal names its cause;
// like every failure to reach the node it is a transport failure.
func (h *httpNode) dialOps(d time.Duration) (*wire.Stream, error) {
	if h.dialErr != nil {
		return nil, h.dialErr
	}
	s, err := wire.Dial(h.client, h.reqs[PathNodeOps], d)
	if err != nil {
		return nil, streamErr("dial "+PathNodeOps, d, err)
	}
	return s, nil
}

// streamErr classifies a stream's failure. Outliving d is the typed deadline
// refusal, not a transport failure: the envelope may have been applied, and
// running it again would double the stall without changing the outcome.
func streamErr(what string, d time.Duration, err error) error {
	if errors.Is(err, wire.ErrDeadline) {
		return deadlineErr(PathNodeOps, d)
	}
	return fmt.Errorf("%w: %s: %v", errTransport, what, err)
}
