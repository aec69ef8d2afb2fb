package platform

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pombm/pombm/internal/geo"
	"github.com/pombm/pombm/internal/hst"
	"github.com/pombm/pombm/internal/obs"
	"github.com/pombm/pombm/internal/wire"
)

// Wire-path body bounds: requests are small control messages, responses can
// carry a publication or a batch result.
const (
	maxRequestBytes  = 1 << 20
	maxResponseBytes = 64 << 20
)

// HTTP endpoint paths.
const (
	PathPublication   = "/v1/publication"
	PathRegister      = "/v1/register"
	PathReregister    = "/v1/reregister"
	PathRelease       = "/v1/release"
	PathWithdraw      = "/v1/withdraw"
	PathTask          = "/v1/task"
	PathTaskBatch     = "/v1/tasks"
	PathStream        = "/v1/stream"
	PathStats         = "/v1/stats"
	PathRotatePrepare = "/v1/rotate/prepare"
	PathRotate        = "/v1/rotate"
)

// Handler exposes a Server over JSON/HTTP.
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathPublication, func(w http.ResponseWriter, r *http.Request) {
		if !requireGet(w, r) {
			return
		}
		pub := s.Publication() // locked read: the tree and epoch rotate
		writeJSON(w, wirePublication{
			Tree:    pub.Tree,
			MinX:    pub.Region.MinX,
			MinY:    pub.Region.MinY,
			MaxX:    pub.Region.MaxX,
			MaxY:    pub.Region.MaxY,
			Cols:    pub.Cols,
			Rows:    pub.Rows,
			Epsilon: pub.Epsilon,
			Epoch:   pub.Epoch,
		})
	})
	for k := KindRegister; k < numKinds; k++ {
		mux.HandleFunc(kindPaths[k], postHandler(s, k))
	}
	mux.HandleFunc(PathStream, streamHandler(s))
	mux.HandleFunc(PathStats, func(w http.ResponseWriter, r *http.Request) {
		if !requireGet(w, r) {
			return
		}
		st := s.Stats()
		st.Agent = s.AgentSnapshot().stats()
		writeJSON(w, st)
	})
	return mux
}

// wirePublication flattens Publication for JSON (geo.Rect has no tags and
// the tree marshals through its Published form).
type wirePublication struct {
	Tree    *hst.Tree `json:"tree"`
	MinX    float64   `json:"min_x"`
	MinY    float64   `json:"min_y"`
	MaxX    float64   `json:"max_x"`
	MaxY    float64   `json:"max_y"`
	Cols    int       `json:"cols"`
	Rows    int       `json:"rows"`
	Epsilon float64   `json:"epsilon"`
	Epoch   int64     `json:"epoch,omitempty"`
}

// Client is an HTTP Backend: agents on other machines talk to the server
// through it. The six agent calls — Register, Reregister, Release, Withdraw,
// Submit, SubmitBatch — travel as frames on upgraded /v1/stream connections
// the Client owns (protocol.go has the contract): a call takes a parked
// stream or dials one through HTTP, does one frame out and one back on its
// caller's goroutine, and parks the stream again. Publication, Stats and the
// two rotation calls are plain requests on HTTP's keep-alive pool.
//
// A stream is dialed when a call finds none parked, so a Client holds as
// many as it has had calls in flight at once, at most maxParkedStreams of
// them parked. One parked longer than parkLimit is closed, not used: the
// server reaps a silent stream soon after, and a call must never be written
// into a reaped one. A call whose exchange fails — the server went away, the
// stream was cut — closes that stream and every parked one and answers the
// typed retryable unavailable, exactly as a POST whose connection died
// does. It is never sent again: /v1 calls carry no idempotency key, and the
// server may have applied it. Retrying is the caller's decision.
//
// A Client whose upgrade request is answered with anything but a 101 it can
// write to — a proxy on the way dropped the hop-by-hop Upgrade header, HTTP
// has a Timeout (which wraps every response body), the server predates
// /v1/stream — makes every call a POST from then on: the POST endpoints
// answer the same bytes, and are the only path that works there.
//
// Set BaseURL and HTTP before the first call; the zero value of everything
// else is ready. A Client is safe for concurrent use. Close it when done
// with it, or its parked streams stay open until the server reaps them.
type Client struct {
	BaseURL string
	HTTP    *http.Client

	// The cached publication is re-fetched by Rotate, so reads and that
	// refresh synchronise on a lock.
	pubMu sync.RWMutex
	pub   *Publication

	mu      sync.Mutex
	upgrade *http.Request // the /v1/stream upgrade, built by the first call
	onPOST  bool          // the upgrade was refused: POST from now on
	parked  []parkedStream
	// exchange times the framed calls by kind, write → read; allocated with
	// the first stream.
	exchange *[numKinds]obs.Hist
}

// parkedStream is a stream no call holds, and since when.
type parkedStream struct {
	s  *wire.Stream
	at time.Time
}

const (
	// maxParkedStreams is NewTransport's MaxIdleConnsPerHost: what a Client
	// kept idle per server when every call was a POST.
	maxParkedStreams = 64
	// parkLimit stays strictly under the server's streamIdleLimit, so a
	// quiet agent never writes into a stream the server has reaped.
	parkLimit = 60 * time.Second
	// exchangeLimit bounds a dial and a framed call. It is longer than the
	// two 30 s attempts a coordinator gives an unreachable node before it
	// answers unavailable itself.
	exchangeLimit = 2 * time.Minute
)

// NewTransport returns an http.Transport tuned for the serving path:
// keep-alives on, enough idle connections per host that a fan-in of
// concurrent clients (or a coordinator's fan-out to one node) never churns
// through fresh TCP handshakes, and bounded dial/TLS timeouts so a dead
// peer fails fast instead of hanging a request slot.
func NewTransport() *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          512,
		MaxIdleConnsPerHost:   64,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: time.Second,
	}
}

// servingClient is the process-wide default HTTP client: one shared
// connection pool, so many Clients against the same server reuse the same
// keep-alive connections instead of each growing their own.
var servingClient = &http.Client{Transport: NewTransport()}

// NewClient returns a client for a server base URL (e.g.
// "http://localhost:8080"). It fetches and caches the publication eagerly
// so construction fails fast on connectivity problems.
func NewClient(baseURL string) (*Client, error) {
	c := &Client{BaseURL: baseURL, HTTP: servingClient}
	var wire wirePublication
	if err := c.get(PathPublication, &wire); err != nil {
		return nil, err
	}
	if wire.Tree == nil {
		return nil, fmt.Errorf("platform: server published no tree")
	}
	c.pub = pubFromWire(&wire)
	return c, nil
}

// pubFromWire folds the flattened wire form back into a Publication — the
// one conversion site both the constructor and post-rotation re-fetch use.
func pubFromWire(wire *wirePublication) *Publication {
	return &Publication{
		Tree:    wire.Tree,
		Region:  geo.NewRect(geo.Pt(wire.MinX, wire.MinY), geo.Pt(wire.MaxX, wire.MaxY)),
		Cols:    wire.Cols,
		Rows:    wire.Rows,
		Epsilon: wire.Epsilon,
		Epoch:   wire.Epoch,
	}
}

// Publication returns the cached publication.
func (c *Client) Publication() Publication {
	c.pubMu.RLock()
	defer c.pubMu.RUnlock()
	return *c.pub
}

// Close closes the streams the Client has parked. A call made afterwards
// dials again.
func (c *Client) Close() {
	c.mu.Lock()
	parked := c.parked
	c.parked = nil
	c.mu.Unlock()
	for _, p := range parked {
		p.s.Close()
	}
}

// ExchangeSnapshot returns how long this Client's framed calls of one kind
// took, from the frame's write to the answer's last byte. Beside the
// server's frame service time for the kind (Server.AgentSnapshot) the
// difference is the transport.
func (c *Client) ExchangeSnapshot(k Kind) obs.Snapshot {
	c.mu.Lock()
	hists := c.exchange
	c.mu.Unlock()
	if hists == nil || k >= numKinds {
		return obs.Snapshot{}
	}
	return hists[k].Snapshot()
}

// clientError folds a transport or server failure into the structured
// taxonomy: a decoded wire *Error passes through typed, anything else
// (connection refused, timeout, undecodable body) becomes unavailable.
func clientError(err error) *Error {
	var pe *Error
	if errors.As(err, &pe) {
		return pe
	}
	return unavailableError(err)
}

// Register implements Backend over HTTP.
func (c *Client) Register(req RegisterRequest) RegisterResponse {
	var resp RegisterResponse
	if err := c.call(KindRegister, req, &resp); err != nil {
		e := clientError(err)
		return RegisterResponse{OK: false, Reason: e.Message, Err: e}
	}
	return resp
}

// Reregister updates a worker's reported leaf over HTTP.
func (c *Client) Reregister(req ReregisterRequest) RegisterResponse {
	var resp RegisterResponse
	if err := c.call(KindReregister, req, &resp); err != nil {
		e := clientError(err)
		return RegisterResponse{OK: false, Reason: e.Message, Err: e}
	}
	return resp
}

// Release returns an assigned worker to the pool over HTTP.
func (c *Client) Release(req ReleaseRequest) RegisterResponse {
	var resp RegisterResponse
	if err := c.call(KindRelease, req, &resp); err != nil {
		e := clientError(err)
		return RegisterResponse{OK: false, Reason: e.Message, Err: e}
	}
	return resp
}

// Withdraw takes a worker offline over HTTP.
func (c *Client) Withdraw(req WithdrawRequest) RegisterResponse {
	var resp RegisterResponse
	if err := c.call(KindWithdraw, req, &resp); err != nil {
		e := clientError(err)
		return RegisterResponse{OK: false, Reason: e.Message, Err: e}
	}
	return resp
}

// Submit implements Backend over HTTP.
func (c *Client) Submit(req TaskRequest) TaskResponse {
	var resp TaskResponse
	if err := c.call(KindTask, req, &resp); err != nil {
		e := clientError(err)
		return TaskResponse{Assigned: false, Reason: e.Message, Err: e}
	}
	return resp
}

// SubmitBatch submits a task batch over HTTP.
func (c *Client) SubmitBatch(req TaskBatchRequest) TaskBatchResponse {
	var resp TaskBatchResponse
	if err := c.call(KindTasks, req, &resp); err != nil {
		e := clientError(err)
		out := TaskBatchResponse{Results: make([]TaskResponse, len(req.Tasks))}
		for i := range out.Results {
			out.Results[i] = TaskResponse{Assigned: false, Reason: e.Message, Err: e}
		}
		return out
	}
	return resp
}

// PrepareRotate stages the next epoch over HTTP and returns the staged
// tree for client-side re-obfuscation. Operator-facing: a deployment
// would protect the rotation endpoints behind its admin plane.
func (c *Client) PrepareRotate(req PrepareRotateRequest) PrepareRotateResponse {
	var resp PrepareRotateResponse
	if err := c.call(kindRotatePrepare, req, &resp); err != nil {
		e := clientError(err)
		return PrepareRotateResponse{OK: false, Reason: e.Message, Err: e}
	}
	return resp
}

// Rotate commits a staged rotation over HTTP with the collected fresh
// reports. On success the client re-fetches and re-caches the publication
// so subsequent agent construction sees the new epoch; if that re-fetch
// fails the commit still happened server-side, so OK stays true and the
// failure is surfaced in Reason — the caller must re-fetch before building
// agents, or they will be refused as stale.
func (c *Client) Rotate(req RotateRequest) RotateResponse {
	var resp RotateResponse
	if err := c.call(kindRotate, req, &resp); err != nil {
		e := clientError(err)
		return RotateResponse{OK: false, Reason: e.Message, Err: e}
	}
	if resp.OK {
		var wire wirePublication
		switch err := c.get(PathPublication, &wire); {
		case err != nil:
			resp.Reason = fmt.Sprintf("rotation committed, but publication re-fetch failed: %v", err)
		case wire.Tree == nil:
			resp.Reason = "rotation committed, but the re-fetched publication has no tree"
		default:
			c.pubMu.Lock()
			c.pub = pubFromWire(&wire)
			c.pubMu.Unlock()
		}
	}
	return resp
}

// Stats fetches the server counters.
func (c *Client) Stats() (StatsResponse, error) {
	var resp StatsResponse
	err := c.get(PathStats, &resp)
	return resp, err
}

var _ Backend = (*Client)(nil)
var _ API = (*Client)(nil)

func (c *Client) get(path string, out any) error {
	resp, err := c.HTTP.Get(c.BaseURL + path)
	if err != nil {
		return fmt.Errorf("platform: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	return decodeResponse(path, resp, out)
}

// call makes one call of kind k: as a frame on a stream when k is an agent
// call and this Client has streams, as a POST otherwise. Either way in is
// encoded once and sent once.
func (c *Client) call(k Kind, in, out any) error {
	path := kindPaths[k]
	cb := wire.Get()
	defer wire.Put(cb)
	if err := cb.Encode(in); err != nil {
		return fmt.Errorf("platform: encode %s: %w", path, err)
	}
	var s *wire.Stream
	if k <= KindTasks {
		var err error
		if s, err = c.stream(); err != nil {
			return fmt.Errorf("platform: dial %s for %s: %w", PathStream, path, err)
		}
	}
	if s == nil {
		return c.post(path, cb, out)
	}
	began := time.Now()
	answer, err := s.Exchange(exchangeLimit, maxResponseBytes, func(dst []byte) []byte {
		return append(append(dst, byte(k)), cb.Bytes()...)
	})
	if err == nil && len(answer) < answerHeader {
		err = fmt.Errorf("an answer of %d bytes", len(answer))
	}
	if err != nil {
		// The stream is dead, and whatever killed it — a restarted server, a
		// reaped connection — the parked ones share: the next call dials
		// rather than meet it again on each of them in turn.
		s.Close()
		c.Close()
		return fmt.Errorf("platform: %s on a stream: %w; the call may have been applied and is not sent again", path, err)
	}
	ended := time.Now()
	c.exchange[k].Record(int64(ended.Sub(began)))
	// The answer lives in the stream's buffer: decoded before the stream is
	// anyone else's.
	err = decodeAnswer(path, int(binary.BigEndian.Uint16(answer)), answer[answerHeader:], cb, out)
	c.park(s, ended)
	return err
}

// stream returns the stream the next call goes out on — the most recently
// parked, else a new one — or nil when this Client calls by POST.
func (c *Client) stream() (*wire.Stream, error) {
	now := time.Now()
	c.mu.Lock()
	if c.onPOST {
		c.mu.Unlock()
		return nil, nil
	}
	var stale []parkedStream
	if last := len(c.parked) - 1; last >= 0 {
		if p := c.parked[last]; now.Sub(p.at) < parkLimit {
			c.parked[last] = parkedStream{}
			c.parked = c.parked[:last]
			c.mu.Unlock()
			return p.s, nil
		}
		// The one parked last is past the limit, so every one is.
		stale, c.parked = c.parked, nil
	}
	upgrade, err := c.upgrade, error(nil)
	if upgrade == nil {
		if upgrade, err = wire.UpgradeRequest(http.MethodGet, c.BaseURL+PathStream, agentProtocol); err == nil {
			c.upgrade = upgrade
		}
	}
	c.mu.Unlock()
	for _, p := range stale {
		p.s.Close()
	}
	if err != nil {
		return nil, err
	}
	s, err := wire.Dial(c.HTTP, upgrade, exchangeLimit)
	c.mu.Lock()
	defer c.mu.Unlock()
	if errors.Is(err, wire.ErrRefused) {
		c.onPOST = true
		return nil, nil
	}
	if err == nil && c.exchange == nil {
		c.exchange = new([numKinds]obs.Hist)
	}
	return s, err
}

// park puts s back, at the time its last exchange ended, after closing the
// streams parked past the limit: the oldest sit first, and a Client that
// once needed many streams and now needs few would otherwise keep the rest
// open, reaped by the server, for as long as it lives.
func (c *Client) park(s *wire.Stream, at time.Time) {
	c.mu.Lock()
	stale := 0
	for stale < len(c.parked) && at.Sub(c.parked[stale].at) >= parkLimit {
		stale++
	}
	drop := slices.Clone(c.parked[:stale])
	c.parked = slices.Delete(c.parked, 0, stale)
	if len(c.parked) < maxParkedStreams {
		c.parked = append(c.parked, parkedStream{s, at})
	} else {
		drop = append(drop, parkedStream{s: s})
	}
	c.mu.Unlock()
	for _, p := range drop {
		p.s.Close()
	}
}

// post sends the request encoded in cb as one POST.
func (c *Client) post(path string, cb *wire.Buf, out any) error {
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+path, cb.Reader())
	if err != nil {
		return fmt.Errorf("platform: POST %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	// The request bytes are pooled scratch that is reclaimed when the call
	// returns; nothing (redirect replay, transparent retry) may re-read them
	// later.
	req.GetBody = nil
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("platform: POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	return decodeResponse(path, resp, out)
}

func decodeResponse(path string, resp *http.Response, out any) error {
	cb := wire.Get()
	defer wire.Put(cb)
	// Read the body to EOF into pooled scratch before decoding: a
	// json.Decoder stops at the end of the value and leaves the trailing
	// newline unread, which defeats net/http keep-alive reuse.
	if err := cb.ReadAll(resp.Body, maxResponseBytes); err != nil {
		return fmt.Errorf("platform: read %s: %w", path, err)
	}
	return decodeAnswer(path, resp.StatusCode, cb.Bytes(), cb, out)
}

// decodeAnswer decodes what path answered — a response's status and body, or
// an answer frame's — into out, through cb's decoder.
func decodeAnswer(path string, status int, body []byte, cb *wire.Buf, out any) error {
	if status != http.StatusOK {
		body = bytes.TrimSpace(body)
		if len(body) > 4<<10 {
			body = body[:4<<10]
		}
		// Error statuses carry a structured Error body; surface it typed so
		// callers can errors.Is against the sentinels. Non-JSON bodies (a
		// proxy's error page) fall back to a plain error.
		var we Error
		if json.Unmarshal(body, &we) == nil && we.Code != "" {
			return &we
		}
		return fmt.Errorf("platform: %s returned %d %s: %s", path, status, http.StatusText(status), body)
	}
	if err := cb.UnmarshalFrom(body, out); err != nil {
		return fmt.Errorf("platform: decode %s: %w", path, err)
	}
	return nil
}

// writeBody answers status with body as JSON. The explicit Content-Length
// lets the client see the body end without a chunked trailer.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, v any) {
	cb := wire.Get()
	defer wire.Put(cb)
	// Encode into pooled scratch first: a failure surfaces as a clean 500
	// instead of a half-written 200.
	if err := cb.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, http.StatusOK, cb.Bytes())
}

// writeError answers with an HTTP error status whose body is the structured
// Error as JSON — the transport-level half of the error taxonomy (refusals
// with well-formed requests ride inside 200 response envelopes instead).
func writeError(w http.ResponseWriter, status int, e *Error) {
	cb := wire.Get()
	defer wire.Put(cb)
	writeBody(w, refuse(cb, status, e), cb.Bytes())
}

// requireGet guards a read-only endpoint: non-GET methods are answered with
// 405 and a structured Error body.
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, &Error{
			Code:    CodeMethodNotAllowed,
			Message: fmt.Sprintf("platform: %s requires GET, got %s", r.URL.Path, r.Method),
		})
		return false
	}
	return true
}

// checkContentType accepts application/json (with any parameters) and — for
// pre-taxonomy clients — an absent Content-Type; anything else is refused.
func checkContentType(r *http.Request) *Error {
	ct := r.Header.Get("Content-Type")
	if ct == "" || ct == "application/json" {
		// Fast path for the exact type every client in this repo sends:
		// mime.ParseMediaType allocates its parameter map even for a bare
		// type, which is measurable at serving rates.
		return nil
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil || !strings.EqualFold(mt, "application/json") {
		return &Error{
			Code:    CodeUnsupportedMedia,
			Message: fmt.Sprintf("platform: %s requires application/json, got %q", r.URL.Path, ct),
		}
	}
	return nil
}

// readBody is the HTTP half of a POSTed call: method, media type and size
// are checked and the body read into pooled scratch the caller Puts back.
// nil means the request was refused, and answered.
func readBody(w http.ResponseWriter, r *http.Request) *wire.Buf {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, &Error{
			Code:    CodeMethodNotAllowed,
			Message: fmt.Sprintf("platform: %s requires POST, got %s", r.URL.Path, r.Method),
		})
		return nil
	}
	if e := checkContentType(r); e != nil {
		writeError(w, http.StatusUnsupportedMediaType, e)
		return nil
	}
	cb := wire.Get()
	if err := cb.ReadRequest(w, r, maxRequestBytes); err != nil {
		wire.Put(cb)
		if errors.Is(err, wire.ErrTooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				badRequestError(fmt.Sprintf("platform: bad request: the body is longer than %d bytes", maxRequestBytes)))
		} else {
			writeError(w, http.StatusBadRequest, badRequestError("platform: bad request: "+err.Error()))
		}
		return nil
	}
	return cb
}
