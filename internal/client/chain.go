// Multi-hop chain execution: the client runs the front layer range
// locally (denaturing the input), then ships the boundary tensor to the
// first server of a hop manifest with ChainExec; each hop executes its
// range and relays onward, and the final output tensor returns relayed
// back through the chain, bit-identical to a local forward pass.
package client

import (
	"errors"
	"fmt"
	"time"

	"websnap/internal/protocol"
	"websnap/internal/tensor"
	"websnap/internal/trace"
)

// ChainHopError locates a multi-hop chain failure: Hop is the 1-based
// index into the hop manifest of the server that failed (a relay that
// could not reach its downstream reports the downstream's index). The
// re-planner uses it to exclude the dead hop and try a shorter chain.
type ChainHopError struct {
	Hop int
	Err error
}

func (e *ChainHopError) Error() string {
	return fmt.Sprintf("chain hop %d: %v", e.Hop, e.Err)
}

func (e *ChainHopError) Unwrap() error { return e.Err }

// ChainOutcome is one successful chain execution's result and telemetry.
type ChainOutcome struct {
	// Output is the chain's final output tensor.
	Output *tensor.Tensor
	// Span is the first hop's span subtree with every downstream hop
	// grafted under it.
	Span *protocol.SpanNode
	// TraceID is the ID stamped on the chain request.
	TraceID string
	// RoundTrip spans request write start to response read completion —
	// the whole chain's remote latency as seen from the client.
	RoundTrip time.Duration
	// WireBytes is the boundary tensor's on-the-wire size.
	WireBytes int64
}

// ChainExec ships a boundary tensor down a chain of edge servers, each
// executing its manifest layer range on the pre-sent model, and returns
// the final output. traceID is stamped on the request so every hop's span
// joins one parented tree; empty generates a fresh ID.
//
// Failures at a specific hop surface as a *ChainHopError (also matching
// ErrServerError, and ErrOverloaded when a hop shed the request), so the
// caller can re-plan around the dead hop or fall back.
func (c *Conn) ChainExec(appID, modelName string, hops []protocol.ChainHop, boundary *tensor.Tensor, traceID string) (*ChainOutcome, error) {
	if len(hops) == 0 {
		return nil, errors.New("client: chain: empty hop manifest")
	}
	seq := c.nextSeq()
	if traceID == "" {
		traceID = trace.NewID()
	}
	body := protocol.Float32Bytes(boundary.Data())
	req, err := protocol.Encode(protocol.MsgChainExec, protocol.ChainExecHeader{
		AppID:     appID,
		ModelName: modelName,
		Seq:       seq,
		Hop:       0,
		Hops:      hops,
		Shape:     boundary.Shape(),
		TraceID:   traceID,
		BodyCRC:   protocol.BodyChecksum(body),
	}, body)
	if err != nil {
		return nil, err
	}
	rtStart := time.Now()
	resp, err := c.roundTripSeq(req, seq)
	rt := time.Since(rtStart)
	if err != nil {
		return nil, fmt.Errorf("client: chain exec: %w", err)
	}
	if resp.Type != protocol.MsgChainResult {
		return nil, fmt.Errorf("client: chain exec: unexpected response %s", resp.Type)
	}
	var hdr protocol.ChainResultHeader
	if err := protocol.DecodeHeader(resp, &hdr); err != nil {
		return nil, err
	}
	if hdr.Seq != seq {
		// A response for a different request means the frame stream has
		// slipped; nothing further read from this socket can be trusted.
		c.markBroken()
		return nil, fmt.Errorf("%w: response seq %d for request %d", ErrConnBroken, hdr.Seq, seq)
	}
	if err := protocol.VerifyBody(resp.Body, hdr.BodyCRC); err != nil {
		// The frame was complete — the stream is still aligned — so the
		// connection stays usable; only this result is poisoned.
		return nil, fmt.Errorf("client: chain result: %w", err)
	}
	c.noteLoad(hdr.Load)
	vals, err := protocol.BytesFloat32(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: chain result: %w", err)
	}
	out, err := tensor.FromSlice(vals, hdr.Shape...)
	if err != nil {
		return nil, fmt.Errorf("client: chain result tensor: %w", err)
	}
	return &ChainOutcome{
		Output:    out,
		Span:      hdr.Span,
		TraceID:   traceID,
		RoundTrip: rt,
		WireBytes: int64(len(body)),
	}, nil
}
