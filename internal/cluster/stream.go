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
	// mine, the one frame whose size a deployment sets: about 70 B ×
	// (codes + shards) × k — 148 KB for a full window at the default k = 8,
	// past maxFrame near k = 56, and -policy batch-optimal:k=<n> has no
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

// serveOps answers the upgrade and then frames until the stream ends (see
// wire.Streams.Serve). The payload of an answer frame is byte-for-byte the
// body the same envelope POSTed would be answered with: answerOps makes
// both.
func serveOps(w http.ResponseWriter, n *Node, cache *replayCache) {
	var few [4]OpRequest // most envelopes carry one op; a window's commits spill to the heap
	err := n.streams.Serve(w, opsProtocol, maxFrame, opsIdleLimit, func(in, out []byte) []byte {
		ops, scanErr := scanOps(in, few[:0])
		return answerOps(n, cache, ops, scanErr, out)
	}, nil)
	if err != nil {
		writeNodeJSON(w, http.StatusInternalServerError, &platform.Error{
			Code: platform.CodeInternal, Message: "cluster: " + PathNodeOps + " upgrade: " + err.Error(),
		})
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
