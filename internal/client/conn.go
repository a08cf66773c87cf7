// Package client implements the client-device side of snapshot-based
// offloading: the synchronous RPC channel to an edge server, asynchronous
// model pre-sending with ACK tracking (§III.B.1), and the Offloader that
// intercepts designated events, ships snapshots, and applies result
// snapshots back into the running app (§III.A).
package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/trace"
)

// DefaultMaxStreams is the concurrent logical-stream cap NegotiateMux
// applies when the caller does not name one.
const DefaultMaxStreams = 64

// ErrServerError wraps a MsgError response from the edge server.
var ErrServerError = errors.New("client: edge server error")

// ErrOverloaded wraps a MsgError response whose header carries the overload
// marker: the request was fine, but the server's admission queue is full.
// The client should execute locally (or pick another server) instead of
// retrying. ErrOverloaded errors also match ErrServerError.
var ErrOverloaded = errors.New("client: edge server overloaded")

// ErrConnBroken marks a connection whose frame stream is no longer
// trustworthy: a previous request failed mid-I/O (deadline expiry while a
// frame was in flight, a short write, a torn read), so the next bytes on
// the wire may belong to a stale response. Reusing such a connection would
// decode garbage as a frame header; every subsequent request fails fast
// with this error instead. Callers should Redial (or dial a fresh Conn) and
// may fall back to local execution meanwhile.
var ErrConnBroken = errors.New("client: connection broken mid-frame")

// Conn is a synchronous request/response channel to an edge server's
// offloading program. It serializes requests with a mutex, so one Conn may
// be shared by the pre-send goroutine and the offloading path.
//
// Servers attach their scheduling load to responses, which the Conn
// records for LastLoad. A response framed in another protocol version
// fails its request with an error matching protocol.ErrBadVersion and
// breaks the Conn.
type Conn struct {
	mu      sync.Mutex
	rw      net.Conn
	seq     uint64
	timeout time.Duration
	// addr is the dialed address; empty for Conns wrapped around an
	// existing net.Conn, which cannot Redial.
	addr string
	// wrap, when set, decorates every dialed socket (netem shaping, chaos
	// injection); applying it inside Redial keeps the decoration across
	// reconnects.
	wrap func(net.Conn) net.Conn
	// broken marks a desynced frame stream (see ErrConnBroken).
	broken bool

	// mux, once NegotiateMux succeeds, switches the Conn to multiplexed
	// operation: writes are serialized under mu but responses are read by a
	// single reader goroutine and routed to the waiting request by Seq, so
	// many logical streams share this one connection concurrently.
	mux bool
	// muxSlots bounds in-flight logical streams (per-stream flow control);
	// acquiring a slot blocks when the window is full.
	muxSlots chan struct{}
	// pending maps an in-flight request's Seq to its reply channel.
	pending map[uint64]chan muxReply
	// readerDone is closed when the current reader goroutine exits.
	readerDone chan struct{}

	// rec, when set, receives the demux routing latency of every
	// multiplexed response (trace.StageDemux) — the time between a frame
	// leaving protocol.Read and its delivery to the waiting stream.
	rec atomic.Pointer[trace.Recorder]

	loadMu   sync.Mutex
	lastLoad *protocol.LoadHint
	loadAt   time.Time
}

// muxReply is one demultiplexed response (or the terminal error that
// killed the stream).
type muxReply struct {
	msg protocol.Message
	err error
}

// noteLoad records a load hint found in a response header.
func (c *Conn) noteLoad(h *protocol.LoadHint) {
	if h == nil {
		return
	}
	c.loadMu.Lock()
	c.lastLoad = h
	c.loadAt = time.Now()
	c.loadMu.Unlock()
}

// LastLoad returns the most recent load hint received from the server and
// when it arrived. ok is false when no response has carried one (old
// server, or no requests yet).
func (c *Conn) LastLoad() (hint protocol.LoadHint, at time.Time, ok bool) {
	c.loadMu.Lock()
	defer c.loadMu.Unlock()
	if c.lastLoad == nil {
		return protocol.LoadHint{}, time.Time{}, false
	}
	return *c.lastLoad, c.loadAt, true
}

// SetRequestTimeout bounds each request/response round trip; a server that
// stops responding yields an error instead of a hang. Zero (the default)
// disables the bound. Large model pre-sends over slow links need a
// correspondingly generous timeout.
func (c *Conn) SetRequestTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// NewConn wraps an established connection (possibly netem-shaped).
func NewConn(rw net.Conn) *Conn {
	return &Conn{rw: rw}
}

// Dial connects to an edge server at addr over TCP. The Conn remembers the
// address, so a broken connection can be re-established with Redial.
func Dial(addr string) (*Conn, error) {
	return DialWrapped(addr, nil)
}

// DialWrapped connects like Dial but passes every dialed socket through
// wrap (netem shaping, fault injection) before framing. Unlike wrapping the
// socket yourself and using NewConn, the decoration survives Redial: each
// reconnect dials raw TCP and re-applies wrap to the fresh socket. A nil
// wrap is identity.
func DialWrapped(addr string, wrap func(net.Conn) net.Conn) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	if wrap != nil {
		c = wrap(c)
	}
	conn := NewConn(c)
	conn.addr = addr
	conn.wrap = wrap
	return conn, nil
}

// Addr returns the dialed server address — the server identity recorded on
// offload decisions. Empty for Conns wrapped around an established
// connection.
func (c *Conn) Addr() string { return c.addr }

// Close closes the underlying connection. On a multiplexed Conn it also
// joins the reader goroutine, so callers (and goroutine-leak checks) see
// a fully quiesced Conn when Close returns.
func (c *Conn) Close() error {
	c.mu.Lock()
	err := c.rw.Close()
	done := c.readerDone
	c.mu.Unlock()
	if done != nil {
		<-done
	}
	return err
}

// Broken reports whether the connection has been marked desynced; all
// further requests fail with ErrConnBroken until Redial succeeds.
func (c *Conn) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// markBroken flags the frame stream as desynced outside roundTrip (e.g. a
// response whose Seq belongs to a different request).
func (c *Conn) markBroken() {
	c.mu.Lock()
	c.broken = true
	c.mu.Unlock()
}

// Redial re-establishes a dialed connection in place: the old socket is
// closed, a fresh one replaces it, and the broken mark is cleared. Conns
// wrapped around an existing net.Conn (NewConn) cannot redial. The server's
// per-app state (pre-sent models, delta bases) is keyed by app ID, not by
// connection, so it survives the reconnect.
func (c *Conn) Redial() error {
	c.mu.Lock()
	if c.addr == "" {
		c.mu.Unlock()
		return fmt.Errorf("client: cannot redial a wrapped connection: %w", ErrConnBroken)
	}
	if !c.mux {
		// Serial Conns swap the socket entirely under the lock, mutually
		// exclusive with any in-flight round trip.
		defer c.mu.Unlock()
		fresh, err := net.Dial("tcp", c.addr)
		if err != nil {
			return fmt.Errorf("client: redial %s: %w", c.addr, err)
		}
		if c.wrap != nil {
			fresh = c.wrap(fresh)
		}
		c.rw.Close() //nolint:errcheck // the old socket is already suspect
		c.rw = fresh
		c.broken = false
		return nil
	}
	if !c.broken {
		// On a shared multiplexed Conn many streams race to recover; the
		// first Redial to finish heals the connection for all of them.
		c.mu.Unlock()
		return nil
	}
	old := c.rw
	oldDone := c.readerDone
	c.mu.Unlock()

	// Retire the old socket's reader before splicing in a fresh socket:
	// closing the socket fails its pending streams and stops the reader, so
	// no goroutine is still draining stale frames when the new one starts.
	old.Close() //nolint:errcheck // the old socket is already suspect
	if oldDone != nil {
		<-oldDone
	}

	fresh, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("client: redial %s: %w", c.addr, err)
	}
	if c.wrap != nil {
		fresh = c.wrap(fresh)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rw != old && !c.broken {
		// A concurrent Redial already installed a healthy socket; keep it.
		fresh.Close() //nolint:errcheck // redundant socket
		return nil
	}
	c.rw = fresh
	c.broken = false
	c.readerDone = make(chan struct{})
	go c.readLoop(fresh, c.readerDone)
	return nil
}

// roundTrip sends one request and reads one response.
//
// Any I/O failure — notably a deadline expiring while a frame is mid-wire —
// leaves the stream position unknown, so the Conn is marked broken: the
// next read could otherwise interpret the stale response's leftover bytes
// as a frame header and decode garbage. A clean MsgError response is a
// complete frame and does NOT break the connection.
func (c *Conn) roundTrip(req protocol.Message) (protocol.Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return protocol.Message{}, ErrConnBroken
	}
	if c.timeout > 0 {
		if err := c.rw.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return protocol.Message{}, fmt.Errorf("client: set deadline: %w", err)
		}
		defer c.rw.SetDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	if err := protocol.Write(c.rw, req); err != nil {
		c.broken = true
		return protocol.Message{}, fmt.Errorf("%w: %w", ErrConnBroken, err)
	}
	resp, err := protocol.Read(c.rw)
	if err != nil {
		c.broken = true
		return protocol.Message{}, fmt.Errorf("%w: %w", ErrConnBroken, err)
	}
	return c.checkError(resp)
}

// checkError turns a MsgError response into the matching client error; any
// other response passes through. A clean error frame is a complete frame,
// so it never breaks the connection.
func (c *Conn) checkError(resp protocol.Message) (protocol.Message, error) {
	if resp.Type != protocol.MsgError {
		return resp, nil
	}
	var hdr protocol.ErrorHeader
	if err := protocol.DecodeHeader(resp, &hdr); err != nil {
		return protocol.Message{}, err
	}
	c.noteLoad(hdr.Load)
	err := fmt.Errorf("%w: %s", ErrServerError, hdr.Message)
	if hdr.Overloaded {
		err = fmt.Errorf("%w: %w: %s", ErrServerError, ErrOverloaded, hdr.Message)
	}
	if hdr.ChainHop > 0 {
		// A chain failure names the hop that died; keep the attribution on
		// the error so the planner can exclude that server and re-plan.
		err = &ChainHopError{Hop: hdr.ChainHop, Err: err}
	}
	return protocol.Message{}, err
}

// SetTraceRecorder wires a recorder into the Conn's demultiplexer: each
// multiplexed response's routing latency lands in its StageDemux
// histogram. The offloader wires its own recorder here so client digests
// cover the demux stage.
func (c *Conn) SetTraceRecorder(rec *trace.Recorder) { c.rec.Store(rec) }

// Muxed reports whether stream multiplexing has been negotiated on this
// connection.
func (c *Conn) Muxed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mux
}

// nextSeq allocates a fresh logical-stream ID. Every request carries one;
// the server echoes it on the response.
func (c *Conn) nextSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	return c.seq
}

// NegotiateMux checks the server's protocol version with one ping and then
// switches the Conn to multiplexed operation: requests from any number of
// goroutines are interleaved on this one connection, each as its own
// logical stream, with at most maxStreams (default DefaultMaxStreams) in
// flight at once. Every server of this protocol version demultiplexes, so
// any pong returns true; a server of another version fails the ping with
// an error matching protocol.ErrBadVersion and leaves the Conn broken.
//
// Negotiate before sharing the Conn across goroutines; the probe itself
// uses the serial path.
func (c *Conn) NegotiateMux(maxStreams int) (bool, error) {
	if maxStreams <= 0 {
		maxStreams = DefaultMaxStreams
	}
	req, err := protocol.Encode(protocol.MsgPing, protocol.PingHeader{}, nil)
	if err != nil {
		return false, err
	}
	resp, err := c.roundTrip(req)
	if err != nil {
		return false, fmt.Errorf("client: mux negotiate: %w", err)
	}
	if resp.Type != protocol.MsgPong {
		return false, fmt.Errorf("client: mux negotiate: unexpected response %s", resp.Type)
	}
	var hdr protocol.PongHeader
	if err := protocol.DecodeHeader(resp, &hdr); err != nil {
		return false, err
	}
	c.noteLoad(hdr.Load)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.mux {
		c.mux = true
		c.muxSlots = make(chan struct{}, maxStreams)
		c.pending = make(map[uint64]chan muxReply)
		c.readerDone = make(chan struct{})
		go c.readLoop(c.rw, c.readerDone)
	}
	return true, nil
}

// readLoop is the multiplexed Conn's single reader: it decodes each
// response's stream ID (every response header carries the shared "seq" key)
// and hands the frame to the waiting request. A read error, an undecodable
// header, or a response for no pending stream all mean the frame stream can
// no longer be trusted, so every pending request fails and the loop exits;
// Redial starts a fresh loop on the replacement socket.
func (c *Conn) readLoop(rw net.Conn, done chan struct{}) {
	defer close(done)
	for {
		resp, err := protocol.Read(rw)
		if err != nil {
			c.failPending(rw, fmt.Errorf("%w: %w", ErrConnBroken, err))
			return
		}
		// Everything after the read is demux routing: header peek, stream
		// lookup, handoff. Recording it separately from the wire keeps a
		// congested reader (many streams racing the single demultiplexer)
		// visible in the stage histograms.
		routeStart := time.Now()
		var env protocol.MuxEnvelope
		if err := json.Unmarshal(resp.Header, &env); err != nil {
			c.failPending(rw, fmt.Errorf("%w: undecodable response header: %w", ErrConnBroken, err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[env.Seq]
		if ok {
			delete(c.pending, env.Seq)
		}
		c.mu.Unlock()
		if !ok {
			c.failPending(rw, fmt.Errorf("%w: response for unknown stream %d", ErrConnBroken, env.Seq))
			return
		}
		ch <- muxReply{msg: resp}
		if rec := c.rec.Load(); rec != nil {
			rec.Observe(trace.StageDemux, time.Since(routeStart))
		}
	}
}

// failPending marks the Conn broken and delivers err to every in-flight
// stream. rw names the socket the failure belongs to: a failure reported
// for an already-retired socket is a no-op — its streams were drained when
// its reader exited, and the streams now pending belong to the healthy
// replacement a concurrent Redial installed.
func (c *Conn) failPending(rw net.Conn, err error) {
	c.mu.Lock()
	if c.rw != rw {
		c.mu.Unlock()
		return
	}
	c.broken = true
	pending := c.pending
	c.pending = make(map[uint64]chan muxReply)
	c.mu.Unlock()
	for _, ch := range pending {
		ch <- muxReply{err: err}
	}
}

// muxRoundTrip runs one logical stream on a multiplexed Conn: acquire a
// stream slot, register the reply channel under seq, write the frame (writes
// stay serialized under mu), then wait for the reader to deliver the
// matching response. A request timeout conservatively breaks the whole
// connection — the response may still arrive later, and with it any frame
// boundary guarantee for the siblings — exactly the serial path's deadline
// semantics.
func (c *Conn) muxRoundTrip(req protocol.Message, seq uint64) (protocol.Message, error) {
	c.muxSlots <- struct{}{}
	defer func() { <-c.muxSlots }()

	ch := make(chan muxReply, 1)
	c.mu.Lock()
	if c.broken {
		c.mu.Unlock()
		return protocol.Message{}, ErrConnBroken
	}
	c.pending[seq] = ch
	timeout := c.timeout
	rw := c.rw
	err := protocol.Write(rw, req)
	c.mu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		// A short write desyncs the shared stream for every sibling too:
		// close the socket this frame went out on (not c.rw, which a
		// concurrent Redial may have already replaced) so its reader
		// unwinds them all.
		rw.Close() //nolint:errcheck // already failing
		c.failPending(rw, fmt.Errorf("%w: %w", ErrConnBroken, err))
		return protocol.Message{}, fmt.Errorf("%w: %w", ErrConnBroken, err)
	}

	var expired <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return protocol.Message{}, r.err
		}
		return c.checkError(r.msg)
	case <-expired:
		c.mu.Lock()
		delete(c.pending, seq)
		if c.rw == rw {
			// Only break the connection the request is actually stuck on; a
			// concurrent Redial may have installed a healthy replacement.
			c.broken = true
		}
		c.mu.Unlock()
		rw.Close() //nolint:errcheck // deliberate teardown
		return protocol.Message{}, fmt.Errorf("%w: request %d timed out after %v", ErrConnBroken, seq, timeout)
	}
}

// roundTripSeq dispatches one request: the multiplexed path when negotiated
// (seq identifies the logical stream), the serial path otherwise.
func (c *Conn) roundTripSeq(req protocol.Message, seq uint64) (protocol.Message, error) {
	if c.Muxed() {
		return c.muxRoundTrip(req, seq)
	}
	return c.roundTrip(req)
}

// Ping probes the server's install state and its current scheduling load.
func (c *Conn) Ping() (installed bool, load *protocol.LoadHint, err error) {
	seq := c.nextSeq()
	req, err := protocol.Encode(protocol.MsgPing, protocol.PingHeader{Seq: seq}, nil)
	if err != nil {
		return false, nil, err
	}
	resp, err := c.roundTripSeq(req, seq)
	if err != nil {
		return false, nil, fmt.Errorf("client: ping: %w", err)
	}
	if resp.Type != protocol.MsgPong {
		return false, nil, fmt.Errorf("client: ping: unexpected response %s", resp.Type)
	}
	var hdr protocol.PongHeader
	if err := protocol.DecodeHeader(resp, &hdr); err != nil {
		return false, nil, err
	}
	c.noteLoad(hdr.Load)
	return hdr.Installed, hdr.Load, nil
}

// PreSendModel ships one model (descriptor + weights) to the edge server
// and waits for the ACK. Set partial when sending only the rear part of a
// split DNN (the front is withheld for privacy, §III.B.2).
func (c *Conn) PreSendModel(appID, name string, model *nn.Network, partial bool) error {
	spec, err := nn.EncodeSpec(model)
	if err != nil {
		return fmt.Errorf("client: model %q: %w", name, err)
	}
	var weights bytes.Buffer
	if err := model.EncodeWeights(&weights); err != nil {
		return fmt.Errorf("client: model %q: %w", name, err)
	}
	seq := c.nextSeq()
	req, err := protocol.Encode(protocol.MsgModelPreSend, protocol.ModelPreSendHeader{
		AppID: appID, ModelName: name, Spec: spec, Partial: partial, Seq: seq,
		BodyCRC: protocol.BodyChecksum(weights.Bytes()),
	}, weights.Bytes())
	if err != nil {
		return err
	}
	resp, err := c.roundTripSeq(req, seq)
	if err != nil {
		return fmt.Errorf("client: pre-send %q: %w", name, err)
	}
	if resp.Type != protocol.MsgAck {
		return fmt.Errorf("client: pre-send %q: unexpected response %s", name, resp.Type)
	}
	var ack protocol.AckHeader
	if err := protocol.DecodeHeader(resp, &ack); err != nil {
		return err
	}
	c.noteLoad(ack.Load)
	if ack.ModelName != name {
		return fmt.Errorf("client: pre-send %q: ACK names %q", name, ack.ModelName)
	}
	return nil
}

// PreSendModelRef offers a model to the edge server by content reference:
// the header carries the spec and the model's fleet blob key
// (nn.Fingerprint), but no weight bytes. A fleet server resolves the blob
// from its cache or a peer and ACKs like a full pre-send; needBlob=true
// means it could not (client should retry with PreSendModel). A server
// that refuses the reference with a clean error frame is reported as
// needBlob too — the reference attempt is always safe, it just wastes one
// round trip.
func (c *Conn) PreSendModelRef(appID, name string, model *nn.Network, partial bool) (needBlob bool, err error) {
	needBlob, _, err = c.PreSendModelRefTraced(appID, name, model, partial, "")
	return needBlob, err
}

// PreSendModelRefTraced is PreSendModelRef with cross-process trace
// propagation: traceID is stamped on the request, and the server's resolve
// span — covering its registry locate and peer fetches — comes back
// alongside the NeedBlob verdict, so a roam handoff's pre-sends join the
// client's trace under one ID. Empty traceID sends an untraced request.
func (c *Conn) PreSendModelRefTraced(appID, name string, model *nn.Network, partial bool, traceID string) (needBlob bool, span *protocol.SpanNode, err error) {
	spec, err := nn.EncodeSpec(model)
	if err != nil {
		return false, nil, fmt.Errorf("client: model %q: %w", name, err)
	}
	key := nn.Fingerprint(model)
	if key == "" {
		return true, nil, nil
	}
	seq := c.nextSeq()
	req, err := protocol.Encode(protocol.MsgModelPreSend, protocol.ModelPreSendHeader{
		AppID: appID, ModelName: name, Spec: spec, Partial: partial, Seq: seq,
		BlobKey: key,
		RefOnly: true,
		TraceID: traceID,
	}, nil)
	if err != nil {
		return false, nil, err
	}
	resp, err := c.roundTripSeq(req, seq)
	if err != nil {
		if errors.Is(err, ErrServerError) && !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrConnBroken) {
			// A clean error frame: the server refused the reference. The
			// stream is intact — fall back to a full upload.
			return true, nil, nil
		}
		return false, nil, fmt.Errorf("client: ref pre-send %q: %w", name, err)
	}
	if resp.Type != protocol.MsgAck {
		return false, nil, fmt.Errorf("client: ref pre-send %q: unexpected response %s", name, resp.Type)
	}
	var ack protocol.AckHeader
	if err := protocol.DecodeHeader(resp, &ack); err != nil {
		return false, nil, err
	}
	c.noteLoad(ack.Load)
	if ack.ModelName != name {
		return false, nil, fmt.Errorf("client: ref pre-send %q: ACK names %q", name, ack.ModelName)
	}
	return ack.NeedBlob, ack.Span, nil
}

// OffloadSnapshot ships an encoded snapshot and returns the encoded result
// snapshot. With compress set, the snapshot text travels DEFLATE-compressed
// and the server mirrors the encoding in its response; the returned bytes
// are always the plain result text. WireBytes reports the on-the-wire size
// of the shipped body.
func (c *Conn) OffloadSnapshot(appID string, encoded []byte, compress bool) (result []byte, wireBytes int64, err error) {
	reply, err := c.offloadBody(protocol.MsgSnapshot, protocol.MsgResultSnapshot, appID, encoded, compress)
	return reply.Result, reply.WireBytes, err
}

// OffloadSnapshotDelta ships an encoded snapshot delta and returns the
// encoded result delta. The server answers with an error when it no longer
// holds the base state; callers fall back to a full snapshot then.
func (c *Conn) OffloadSnapshotDelta(appID string, encoded []byte, compress bool) (result []byte, wireBytes int64, err error) {
	reply, err := c.offloadBody(protocol.MsgSnapshotDelta, protocol.MsgResultDelta, appID, encoded, compress)
	return reply.Result, reply.WireBytes, err
}

// offloadReply is one snapshot round trip's full outcome, including the
// measurements the trace pipeline consumes.
type offloadReply struct {
	// Result is the plain (decompressed) result body.
	Result []byte
	// WireBytes is the on-the-wire size of the shipped request body;
	// RespBytes the response frame's header+body size.
	WireBytes, RespBytes int64
	// Compress and Decompress are the client-side body codec times (zero
	// without compression).
	Compress, Decompress time.Duration
	// RoundTrip spans request write start to response read completion.
	RoundTrip time.Duration
	// TraceID is the ID stamped on the request; ServerTrace is the
	// server's span report.
	TraceID     string
	ServerTrace *protocol.ServerTrace
}

func (c *Conn) offloadBody(reqType, respType protocol.MsgType, appID string, encoded []byte, compress bool) (offloadReply, error) {
	seq := c.nextSeq()
	var reply offloadReply
	reply.TraceID = trace.NewID()
	body := encoded
	encoding := protocol.EncodingRaw
	if compress {
		start := time.Now()
		compressed, err := protocol.CompressBody(encoded)
		if err != nil {
			return reply, err
		}
		reply.Compress = time.Since(start)
		body = compressed
		encoding = protocol.EncodingFlate
	}
	req, err := protocol.Encode(reqType, protocol.SnapshotHeader{
		AppID: appID, Seq: seq, Encoding: encoding, TraceID: reply.TraceID,
		BodyCRC: protocol.BodyChecksum(body),
	}, body)
	if err != nil {
		return reply, err
	}
	rtStart := time.Now()
	resp, err := c.roundTripSeq(req, seq)
	reply.RoundTrip = time.Since(rtStart)
	if err != nil {
		return reply, fmt.Errorf("client: %s: %w", reqType, err)
	}
	if resp.Type != respType {
		return reply, fmt.Errorf("client: %s: unexpected response %s", reqType, resp.Type)
	}
	var hdr protocol.SnapshotHeader
	if err := protocol.DecodeHeader(resp, &hdr); err != nil {
		return reply, err
	}
	if hdr.Seq != seq {
		// A response for a different request means the frame stream has
		// slipped (a stale response from before a fault); nothing read from
		// this socket can be trusted anymore.
		c.markBroken()
		return reply, fmt.Errorf("%w: response seq %d for request %d", ErrConnBroken, hdr.Seq, seq)
	}
	if err := protocol.VerifyBody(resp.Body, hdr.BodyCRC); err != nil {
		// The frame itself was complete — the stream is still aligned — so
		// the connection stays usable; only this result is poisoned.
		return reply, fmt.Errorf("client: %s result: %w", reqType, err)
	}
	c.noteLoad(hdr.Load)
	reply.ServerTrace = hdr.ServerTrace
	reply.WireBytes = int64(len(body))
	reply.RespBytes = int64(len(resp.Header) + len(resp.Body))
	decStart := time.Now()
	plain, err := protocol.DecodeBody(resp.Body, hdr.Encoding)
	if err != nil {
		return reply, fmt.Errorf("client: %s result: %w", reqType, err)
	}
	if hdr.Encoding == protocol.EncodingFlate {
		reply.Decompress = time.Since(decStart)
	}
	reply.Result = plain
	return reply, nil
}

// InstallOverlay ships a compressed VM overlay for on-demand installation
// and returns the server-reported synthesis time.
func (c *Conn) InstallOverlay(baseImage string, blob []byte) (time.Duration, error) {
	seq := c.nextSeq()
	req, err := protocol.Encode(protocol.MsgInstallOverlay,
		protocol.InstallOverlayHeader{BaseImage: baseImage, Seq: seq}, blob)
	if err != nil {
		return 0, err
	}
	resp, err := c.roundTripSeq(req, seq)
	if err != nil {
		return 0, fmt.Errorf("client: install: %w", err)
	}
	if resp.Type != protocol.MsgInstallDone {
		return 0, fmt.Errorf("client: install: unexpected response %s", resp.Type)
	}
	var hdr protocol.InstallDoneHeader
	if err := protocol.DecodeHeader(resp, &hdr); err != nil {
		return 0, err
	}
	return time.Duration(hdr.SynthesisMillis) * time.Millisecond, nil
}
