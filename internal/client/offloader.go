package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"websnap/internal/nn"
	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/telemetry"
	"websnap/internal/trace"
	"websnap/internal/webapp"
)

// ModelToSend names one model to pre-send to the edge server.
type ModelToSend struct {
	// Name is the model's name as loaded in the app.
	Name string
	// Net is the network to ship. For partial inference this is the rear
	// part only.
	Net *nn.Network
	// Partial marks a rear-only pre-send.
	Partial bool
}

// Options configures an Offloader.
type Options struct {
	// OffloadEventTypes lists the event types whose handlers are
	// offloaded instead of executed locally (e.g. "click" for full
	// inference, "front_complete" for partial inference per Fig 5).
	OffloadEventTypes []string
	// Models lists the models to pre-send when StartPreSend is called.
	// The developer supplies this list, per §III.B.1 ("the list of the
	// files ... are given by app developers").
	Models []ModelToSend
	// LocalFallback executes the event locally when offloading fails
	// (server unreachable, protocol error). Defaults to false so errors
	// surface in tests; production callers enable it.
	LocalFallback bool
	// ExcludeModels lists models that must never leave the device — the
	// front part of a partially-split DNN (§III.B.2): withholding it
	// both shrinks the snapshot and prevents the server from inverting
	// the feature data back to the input.
	ExcludeModels []string
	// EnableDelta ships repeated offloads as deltas against the state
	// left at the server by the previous offload (the paper's §VI future
	// work). The first offload — and any offload whose base the server
	// no longer holds — automatically falls back to a full snapshot.
	EnableDelta bool
	// Compress ships snapshot (and delta) bodies DEFLATE-compressed.
	// Snapshots are text, so this typically shrinks transfers several
	// fold at the cost of client CPU; it is off by default to match the
	// paper's plain-text snapshots.
	Compress bool
	// MaxQueueingDelay sheds offloads to local execution while the
	// server's last load hint predicts a queueing delay above this bound
	// or reports a saturated admission queue — the client-side half of
	// load-aware offloading: don't ship work to a server that will park
	// it in a queue longer than it is worth. Zero disables shedding.
	MaxQueueingDelay time.Duration
	// LoadHintTTL bounds how long a received load hint influences
	// shedding; stale hints are ignored. Zero selects DefaultLoadHintTTL.
	LoadHintTTL time.Duration
	// Audit, when non-nil, receives exactly one structured decision event
	// per offload-eligible event the offloader processes: offloaded, shed
	// to local, fallen back after an error, or surfaced as an error.
	Audit *obs.Auditor
	// AuditPath is the decision path recorded for successful offloads:
	// obs.PathFull (the default) or obs.PathPartial for split-DNN
	// sessions.
	AuditPath obs.DecisionPath
	// SplitLabel names the partition point, recorded on partial-offload
	// decisions.
	SplitLabel string
	// PredictedOffload is the cost model's end-to-end latency prediction
	// for the configured offload path; recorded on successful offload
	// decisions so the audit can quantify prediction error. Zero means no
	// prediction available.
	PredictedOffload time.Duration
	// BlobRefPreSend offers each model to the server by content reference
	// (nn.Fingerprint) before uploading bytes. A fleet server that holds
	// the blob — or can fetch it from a peer — ACKs without the upload, so
	// a roaming client never re-ships a model the fleet already has; a
	// NeedBlob answer (or an error frame refusing the reference) falls
	// back to the full upload at the cost of one extra round trip.
	BlobRefPreSend bool
	// FleetSync keeps the delta sync point across Retarget: in a fleet the
	// new server recovers the base state from the blob index (published by
	// the previous server), so the first post-handoff offload ships as a
	// delta instead of a full snapshot. Leave false against non-fleet
	// servers, where the base would be unrecoverable and the first delta
	// attempt wasted.
	FleetSync bool
	// Placement names the fleet placement policy that selected this
	// session's server; recorded on every audit decision.
	Placement string
	// Flight, when non-nil, receives a flight-recorder entry for every
	// shed, failed, and fallen-back offload decision, plus the merged span
	// tree of each roam handoff pre-send — the client-side feed of
	// /debug/flight.
	Flight *telemetry.FlightRecorder
}

// DefaultLoadHintTTL is how long a load hint stays fresh for shedding
// decisions when Options.LoadHintTTL is zero.
const DefaultLoadHintTTL = 5 * time.Second

// Stats records the transfer sizes of the most recent offload, for
// experiment reporting.
type Stats struct {
	// Offloads counts completed snapshot round trips.
	Offloads int
	// LocalFallbacks counts events executed locally after a failed
	// offload attempt.
	LocalFallbacks int
	// LastSnapshotBytes is the encoded size of the last shipped
	// snapshot.
	LastSnapshotBytes int64
	// LastResultBytes is the encoded size of the last result snapshot.
	LastResultBytes int64
	// LastModelIncluded reports whether the last offload had to ship
	// model files inline (offload before ACK).
	LastModelIncluded bool
	// LastInlineModelBytes is the size of model weights shipped inline
	// with the last offload (zero after the ACK has arrived).
	LastInlineModelBytes int64
	// DeltaOffloads counts offloads that shipped as deltas against
	// server-side state.
	DeltaOffloads int
	// DeltaFallbacks counts delta attempts the server rejected (base
	// state missing), causing a full-snapshot retry.
	DeltaFallbacks int
	// LoadSheds counts events executed locally because the server's load
	// hint predicted too much queueing delay (no offload was attempted).
	LoadSheds int
	// Redials counts successful in-place reconnects after the connection
	// was marked broken (ErrConnBroken).
	Redials int
	// PreSendBytes is the total model weight bytes actually uploaded
	// (background pre-sends and inline sends; reference hits ship none).
	PreSendBytes int64
	// RefPreSendHits counts model pre-sends satisfied by content
	// reference — the fleet already held the blob, zero bytes shipped.
	RefPreSendHits int
	// RefPreSendMisses counts reference attempts answered NeedBlob (or
	// refused with an error frame), each followed by a full upload.
	RefPreSendMisses int
	// LastTiming is the wall-clock phase breakdown of the last offload —
	// the real-path counterpart of the paper's Fig 7.
	LastTiming Timing
	// LastTrace is the merged client+server span trace of the last
	// completed offload (nil before the first).
	LastTrace *trace.Trace
	// LastHandoffSpan is the merged cross-process span tree of the most
	// recent traced handoff pre-send: the client root over the new
	// server's resolve span, which nests the registry locate and any peer
	// fetch — one tree, one trace ID, every process the handoff touched.
	// Nil until a Retarget pre-sends a model by reference.
	LastHandoffSpan *protocol.SpanNode
}

// Timing is the measured wall-clock breakdown of one offload round trip.
type Timing struct {
	// InlineModelSend is the time spent shipping un-ACKed models before
	// the snapshot (zero after pre-sending completes).
	InlineModelSend time.Duration
	// CaptureEncode covers snapshot capture plus textual encoding at the
	// client (Fig 7's "Snapshot Capture (C)").
	CaptureEncode time.Duration
	// RoundTrip covers transmission both ways plus everything at the
	// server (restore, DNN execution, result capture).
	RoundTrip time.Duration
	// DecodeApply covers decoding and applying the result snapshot at
	// the client (Fig 7's "Snapshot Restoration (C)").
	DecodeApply time.Duration
}

// Total returns the end-to-end offload time.
func (t Timing) Total() time.Duration {
	return t.InlineModelSend + t.CaptureEncode + t.RoundTrip + t.DecodeApply
}

// Offloader drives a web app with snapshot-based offloading: events of
// designated types are captured into snapshots and executed at the edge
// server; everything else runs locally.
type Offloader struct {
	app  *webapp.App
	conn *Conn
	opts Options

	offloadTypes  map[string]bool
	excludeModels map[string]bool
	// rec aggregates per-stage latencies across this offloader's traces.
	rec *trace.Recorder

	mu      sync.Mutex
	acked   map[string]bool
	ackErrs []error
	stats   Stats
	// lastSync is the last full snapshot state both client and server
	// hold (the server's previous result), the base for delta offloads.
	lastSync *snapshot.Snapshot
	// handoffTrace, set by Retarget, is the trace ID stamped on the
	// post-handoff pre-sends so the new server's resolution work
	// (registry locate, peer fetch) joins one trace.
	handoffTrace string

	presendWG      sync.WaitGroup
	presendStarted bool
}

// NewOffloader wires an app to an edge-server connection.
func NewOffloader(app *webapp.App, conn *Conn, opts Options) (*Offloader, error) {
	if app == nil || conn == nil {
		return nil, errors.New("client: nil app or conn")
	}
	types := make(map[string]bool, len(opts.OffloadEventTypes))
	for _, t := range opts.OffloadEventTypes {
		types[t] = true
	}
	excluded := make(map[string]bool, len(opts.ExcludeModels))
	for _, name := range opts.ExcludeModels {
		excluded[name] = true
	}
	for _, m := range opts.Models {
		if excluded[m.Name] {
			return nil, fmt.Errorf("client: model %q is both pre-sent and excluded", m.Name)
		}
	}
	o := &Offloader{
		app:           app,
		conn:          conn,
		opts:          opts,
		offloadTypes:  types,
		excludeModels: excluded,
		acked:         make(map[string]bool),
		rec:           trace.NewRecorder(),
	}
	// The Conn's demultiplexer feeds its routing latency into the same
	// recorder as the offload stages, so one digest covers both.
	conn.SetTraceRecorder(o.rec)
	return o, nil
}

// TraceRecorder exposes the per-stage latency histograms aggregated over
// every offload this offloader has completed.
func (o *Offloader) TraceRecorder() *trace.Recorder { return o.rec }

// App returns the driven app.
func (o *Offloader) App() *webapp.App { return o.app }

// Retarget points the offloader at a different edge server — the paper's
// mobility scenario (§I): snapshot-based offloading "can readily work on a
// new edge server since it has no dependence on the previous server". All
// per-server state is reset: model ACKs (the new server has no models) and
// the delta sync point. Pre-sending restarts if it was started before.
//
// Like the app itself, the offloader is single-threaded: Retarget must not
// race with Step/Offload calls.
func (o *Offloader) Retarget(conn *Conn) error {
	if conn == nil {
		return errors.New("client: retarget to nil conn")
	}
	// Let any in-flight pre-send finish against the old server before
	// swapping; its ACKs are about to be discarded anyway.
	o.presendWG.Wait()
	conn.SetTraceRecorder(o.rec)
	o.mu.Lock()
	o.conn = conn
	o.acked = make(map[string]bool)
	o.ackErrs = nil
	// A handoff gets one trace ID for all its pre-sends: the new server's
	// resolution hops all join the same tree.
	o.handoffTrace = trace.NewID()
	if !o.opts.FleetSync {
		// Outside a fleet the new server cannot know the old sync point.
		// With FleetSync the base survives: the previous server published
		// it to the blob index, and the new one recovers it on the first
		// delta.
		o.lastSync = nil
	}
	restart := o.presendStarted
	o.presendStarted = false
	o.mu.Unlock()
	if restart {
		o.StartPreSend()
	}
	return nil
}

// Stats returns a copy of the offloader's counters.
func (o *Offloader) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// StartPreSend begins sending the configured models to the edge server in
// the background, as the paper does when the web app starts. Offloads
// issued before a model's ACK arrives ship the model inside the snapshot
// instead (slower); offloads after the ACK ship a spec-only snapshot.
func (o *Offloader) StartPreSend() {
	o.mu.Lock()
	if o.presendStarted {
		o.mu.Unlock()
		return
	}
	o.presendStarted = true
	o.mu.Unlock()
	o.presendWG.Add(1)
	go func() {
		defer o.presendWG.Done()
		for _, m := range o.opts.Models {
			_, err := o.preSend(m.Name, m.Net, m.Partial)
			o.mu.Lock()
			if err != nil {
				o.ackErrs = append(o.ackErrs, fmt.Errorf("pre-send %q: %w", m.Name, err))
			} else {
				o.acked[m.Name] = true
			}
			o.mu.Unlock()
		}
	}()
}

// preSend ships one model to the current server, by content reference
// first when BlobRefPreSend is on, and returns the weight bytes actually
// uploaded (zero on a reference hit).
func (o *Offloader) preSend(name string, model *nn.Network, partial bool) (int64, error) {
	if o.opts.BlobRefPreSend {
		o.mu.Lock()
		tid := o.handoffTrace
		o.mu.Unlock()
		start := time.Now()
		needBlob, span, err := o.conn.PreSendModelRefTraced(o.app.ID(), name, model, partial, tid)
		if err != nil {
			return 0, err
		}
		if span != nil {
			o.noteHandoffSpan(tid, name, span, time.Since(start))
		}
		if !needBlob {
			o.mu.Lock()
			o.stats.RefPreSendHits++
			o.mu.Unlock()
			return 0, nil
		}
		o.mu.Lock()
		o.stats.RefPreSendMisses++
		o.mu.Unlock()
	}
	if err := o.conn.PreSendModel(o.app.ID(), name, model, partial); err != nil {
		return 0, err
	}
	sent := model.ModelBytes()
	o.mu.Lock()
	o.stats.PreSendBytes += sent
	o.mu.Unlock()
	return sent, nil
}

// noteHandoffSpan parents a traced pre-send's server-side resolve span
// under a client root — the completed cross-process tree — and records it
// in Stats and the flight recorder.
func (o *Offloader) noteHandoffSpan(traceID, name string, span *protocol.SpanNode, rtt time.Duration) {
	root := &protocol.SpanNode{
		Op:       "handoff_presend",
		Addr:     "client",
		Micros:   rtt.Microseconds(),
		Detail:   name,
		Children: []*protocol.SpanNode{span},
	}
	o.mu.Lock()
	o.stats.LastHandoffSpan = root
	o.mu.Unlock()
	if o.opts.Flight != nil {
		o.opts.Flight.Record(telemetry.FlightEntry{
			TraceID: traceID,
			Reason:  telemetry.FlightHandoff,
			Note:    "handoff pre-send of model " + name,
			Span:    root,
		})
	}
}

// WaitForAcks blocks until every configured model pre-send has completed
// (successfully or not) and returns any accumulated errors.
func (o *Offloader) WaitForAcks() error {
	o.presendWG.Wait()
	o.mu.Lock()
	defer o.mu.Unlock()
	return errors.Join(o.ackErrs...)
}

// ModelAcked reports whether the named model's ACK has arrived.
func (o *Offloader) ModelAcked(name string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.acked[name]
}

// ShouldOffload reports whether an event's handler is configured for
// offloading.
func (o *Offloader) ShouldOffload(ev webapp.Event) bool {
	return o.offloadTypes[ev.Type]
}

// Step processes the next pending app event: offloaded types go to the edge
// server, everything else runs locally. It reports whether an event was
// processed.
func (o *Offloader) Step() (bool, error) {
	ev, ok := o.app.PeekEvent()
	if !ok {
		return false, nil
	}
	if !o.ShouldOffload(ev) {
		if err := o.app.Step(); err != nil {
			return true, err
		}
		return true, nil
	}
	o.app.PopEvent()
	if shed, reason := o.shouldShed(); shed {
		o.mu.Lock()
		o.stats.LoadSheds++
		o.mu.Unlock()
		start := time.Now()
		o.app.DispatchEvent(ev)
		err := o.app.Step()
		o.decide(obs.Decision{Path: obs.PathShed, Reason: reason, Measured: time.Since(start)})
		return true, err
	}
	out, err := o.offload(ev)
	if err != nil {
		// A broken connection (mid-frame timeout, torn read) would desync
		// every later request: re-establish it now so the next offload
		// runs on a clean frame stream, regardless of how this event is
		// finished.
		o.maybeRedial(err)
		if !o.opts.LocalFallback {
			o.decide(obs.Decision{Path: obs.PathError, Reason: errKind(err), TraceID: out.traceID})
			return true, err
		}
		o.mu.Lock()
		o.stats.LocalFallbacks++
		o.mu.Unlock()
		start := time.Now()
		o.app.DispatchEvent(ev)
		stepErr := o.app.Step()
		o.decide(obs.Decision{Path: obs.PathFallback, Reason: errKind(err),
			TraceID: out.traceID, Measured: time.Since(start)})
		return true, stepErr
	}
	o.decideSuccess(out)
	return true, nil
}

// offloadOutcome carries the audit-relevant facts of one offload attempt.
type offloadOutcome struct {
	// traceID identifies the request, joining the decision to the span
	// pipeline; set even for attempts that failed after the request was
	// stamped.
	traceID string
	// delta marks an offload shipped as a delta snapshot.
	delta bool
	// batch is the server-side batch the request was executed in.
	batch int
	// measured is the end-to-end wall time of the offload round trip.
	measured time.Duration
}

// errKind classifies an offload error for decision attribution.
func errKind(err error) string {
	switch {
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrConnBroken):
		return "conn-broken"
	case errors.Is(err, ErrServerError):
		return "server-error"
	default:
		return "other"
	}
}

// decide fills one decision event's shared context (app, server, hint age)
// and records it; sheds, errors, and fallbacks also land in the flight
// recorder (with the decision joined to the entry) when one is configured.
func (o *Offloader) decide(d obs.Decision) {
	d.AppID = o.app.ID()
	if d.Server == "" {
		d.Server = o.serverAddr()
	}
	d.Placement = o.opts.Placement
	d.HintAge = o.hintAge()
	if o.opts.Audit != nil {
		o.opts.Audit.Record(d)
	}
	if o.opts.Flight == nil {
		return
	}
	var reason string
	switch d.Path {
	case obs.PathShed:
		reason = telemetry.FlightShed
	case obs.PathError, obs.PathFallback:
		reason = telemetry.FlightError
	default:
		return
	}
	dc := d
	o.opts.Flight.Record(telemetry.FlightEntry{
		TraceID:  d.TraceID,
		Reason:   reason,
		Note:     string(d.Path) + ": " + d.Reason,
		Decision: &dc,
	})
}

// decideSuccess records the decision for a completed offload, carrying the
// cost model's prediction so the audit can measure prediction error.
func (o *Offloader) decideSuccess(out offloadOutcome) {
	path := o.opts.AuditPath
	if path == "" {
		path = obs.PathFull
	}
	o.decide(obs.Decision{
		Path:       path,
		SplitLabel: o.opts.SplitLabel,
		Predicted:  o.opts.PredictedOffload,
		Measured:   out.measured,
		TraceID:    out.traceID,
		Delta:      out.delta,
		BatchSize:  out.batch,
	})
}

// serverAddr identifies the edge server the offloader currently targets.
func (o *Offloader) serverAddr() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.conn.Addr()
}

// hintAge reports how stale the current server load hint is; negative when
// no hint has arrived.
func (o *Offloader) hintAge() time.Duration {
	o.mu.Lock()
	conn := o.conn
	o.mu.Unlock()
	if _, at, ok := conn.LastLoad(); ok {
		return time.Since(at)
	}
	return -1
}

// maybeRedial re-establishes the connection after an ErrConnBroken failure.
// It reports whether a redial happened; failures are left for the next
// attempt (the conn stays broken and keeps failing fast).
func (o *Offloader) maybeRedial(err error) bool {
	if !errors.Is(err, ErrConnBroken) {
		return false
	}
	o.mu.Lock()
	conn := o.conn
	o.mu.Unlock()
	if rerr := conn.Redial(); rerr != nil {
		return false
	}
	o.mu.Lock()
	o.stats.Redials++
	o.mu.Unlock()
	return true
}

// shouldShed reports whether the server's last load hint says to keep this
// event local: the hint is fresh and predicts a queueing delay beyond the
// configured bound (or a saturated queue). The reason names the trigger
// for decision attribution.
func (o *Offloader) shouldShed() (bool, string) {
	if o.opts.MaxQueueingDelay <= 0 {
		return false, ""
	}
	o.mu.Lock()
	conn := o.conn
	o.mu.Unlock()
	hint, at, ok := conn.LastLoad()
	if !ok {
		return false, ""
	}
	ttl := o.opts.LoadHintTTL
	if ttl <= 0 {
		ttl = DefaultLoadHintTTL
	}
	if time.Since(at) > ttl {
		return false, ""
	}
	if hint.Saturated {
		return true, "hint-saturated"
	}
	if hint.QueueingDelay() > o.opts.MaxQueueingDelay {
		return true, "hint-delay"
	}
	return false, ""
}

// Run drives the app until its event queue drains or maxSteps events have
// been processed.
func (o *Offloader) Run(maxSteps int) (int, error) {
	steps := 0
	for steps < maxSteps {
		processed, err := o.Step()
		if err != nil {
			return steps, err
		}
		if !processed {
			return steps, nil
		}
		steps++
	}
	if _, pending := o.app.PeekEvent(); pending {
		return steps, fmt.Errorf("client: app %q did not quiesce within %d steps", o.app.ID(), maxSteps)
	}
	return steps, nil
}

// Offload executes ev's handler at the edge server via a snapshot round
// trip, then applies the result snapshot to the local app (Fig 3). When an
// auditor is configured the call emits one decision event; callers driving
// the app through Step must not call Offload for the same event, or the
// event would be audited twice.
func (o *Offloader) Offload(ev webapp.Event) error {
	out, err := o.offload(ev)
	if err != nil {
		o.decide(obs.Decision{Path: obs.PathError, Reason: errKind(err), TraceID: out.traceID})
		return err
	}
	o.decideSuccess(out)
	return nil
}

// offload executes one offload round trip without emitting a decision —
// Step and Offload wrap it and attribute the outcome exactly once.
//
// If a model's ACK has not arrived yet, the client "sends both the snapshot
// and the NN model, albeit it is slower" (§III.B.1): the model files go
// first as an inline pre-send, then the snapshot ships spec-only.
func (o *Offloader) offload(ev webapp.Event) (offloadOutcome, error) {
	var timing Timing
	modelIncluded := false
	var inlineBytes int64
	policies := make(map[string]snapshot.ModelPolicy)
	inlineStart := time.Now()
	for _, name := range o.app.ModelNames() {
		if o.excludeModels[name] {
			policies[name] = snapshot.ModelOmit
			continue
		}
		if o.ModelAcked(name) {
			continue
		}
		model, _ := o.app.Model(name)
		sent, err := o.preSend(name, model, false)
		if err != nil {
			return offloadOutcome{}, fmt.Errorf("client: inline model send %q: %w", name, err)
		}
		if sent > 0 {
			modelIncluded = true
			inlineBytes += sent
		}
		o.mu.Lock()
		o.acked[name] = true
		o.mu.Unlock()
	}
	if modelIncluded {
		timing.InlineModelSend = time.Since(inlineStart)
	}
	captureStart := time.Now()
	snap, err := snapshot.Capture(o.app, snapshot.Options{
		DefaultModelPolicy: snapshot.ModelSpecOnly,
		ModelPolicies:      policies,
		PendingEvent:       &ev,
	})
	if err != nil {
		return offloadOutcome{}, fmt.Errorf("client: capture: %w", err)
	}
	captureDur := time.Since(captureStart)

	if o.opts.EnableDelta {
		o.mu.Lock()
		base := o.lastSync
		o.mu.Unlock()
		if base != nil {
			out, done, err := o.offloadDelta(base, snap, modelIncluded, inlineBytes, timing, captureDur)
			if err == nil && done {
				return out, nil
			}
			if err != nil {
				// The server may have lost the base state (restart,
				// hand-off to a new server): retry as a full snapshot.
				o.mu.Lock()
				o.stats.DeltaFallbacks++
				o.lastSync = nil
				o.mu.Unlock()
			}
		}
	}

	encodeStart := time.Now()
	encoded, err := snap.Encode()
	if err != nil {
		return offloadOutcome{}, fmt.Errorf("client: encode: %w", err)
	}
	encodeDur := time.Since(encodeStart)
	timing.CaptureEncode = captureDur + encodeDur
	reply, err := o.conn.offloadBody(protocol.MsgSnapshot, protocol.MsgResultSnapshot, o.app.ID(), encoded, o.opts.Compress)
	if err != nil {
		return offloadOutcome{traceID: reply.TraceID}, err
	}
	timing.RoundTrip = reply.RoundTrip
	applyStart := time.Now()
	result, err := snapshot.Decode(reply.Result)
	if err != nil {
		return offloadOutcome{traceID: reply.TraceID}, fmt.Errorf("client: decode result: %w", err)
	}
	if err := result.ApplyTo(o.app, snapshot.RestoreOptions{}); err != nil {
		return offloadOutcome{traceID: reply.TraceID}, fmt.Errorf("client: apply result: %w", err)
	}
	timing.DecodeApply = time.Since(applyStart)
	tr := assembleTrace(reply, captureDur, encodeDur, timing.DecodeApply)
	o.rec.ObserveTrace(tr)
	o.mu.Lock()
	o.stats.Offloads++
	o.stats.LastSnapshotBytes = reply.WireBytes
	o.stats.LastResultBytes = int64(len(reply.Result))
	o.stats.LastModelIncluded = modelIncluded
	o.stats.LastInlineModelBytes = inlineBytes
	o.stats.LastTiming = timing
	o.stats.LastTrace = tr
	o.lastSync = result
	o.mu.Unlock()
	return offloadOutcome{traceID: tr.ID, batch: tr.BatchSize, measured: timing.Total()}, nil
}

// assembleTrace merges one round trip's client-side measurements with the
// server's span report into a single per-offload trace.
//
// The two clocks are never compared directly: the server reports durations
// only, and wire time is derived as the client-observed round trip minus the
// server's total, split between the upload and download legs proportionally
// to the bytes each moved. Server-side decode/execute/encode fold into the
// execute stage; the queue span is the admission-queue wait.
func assembleTrace(reply offloadReply, capture, encode, restore time.Duration) *trace.Trace {
	tr := &trace.Trace{ID: reply.TraceID}
	tr.Add(trace.StageCapture, capture)
	tr.Add(trace.StageEncode, encode)
	if c := reply.Compress + reply.Decompress; c > 0 {
		tr.Add(trace.StageCompress, c)
	}
	wire := reply.RoundTrip
	if st := reply.ServerTrace; st != nil {
		if t := st.Total(); t < wire {
			wire -= t
		} else {
			wire = 0
		}
	}
	up, down := wire, time.Duration(0)
	if total := reply.WireBytes + reply.RespBytes; total > 0 {
		up = wire * time.Duration(reply.WireBytes) / time.Duration(total)
		down = wire - up
	}
	tr.Add(trace.StageWire, up)
	if st := reply.ServerTrace; st != nil {
		tr.Add(trace.StageQueue, time.Duration(st.QueueMicros)*time.Microsecond)
		exec := st.DecodeMicros + st.ExecuteMicros + st.EncodeMicros
		tr.Add(trace.StageExecute, time.Duration(exec)*time.Microsecond)
		tr.BatchSize = st.BatchSize
	}
	tr.Add(trace.StageResultWire, down)
	tr.Add(trace.StageRestore, restore)
	return tr
}

// offloadDelta ships the offload as a delta against base (the server's
// previous result). It reports done=true on success; errors signal the
// caller to fall back to a full snapshot.
func (o *Offloader) offloadDelta(base, snap *snapshot.Snapshot, modelIncluded bool,
	inlineBytes int64, timing Timing, captureDur time.Duration) (offloadOutcome, bool, error) {
	encodeStart := time.Now()
	delta, err := snapshot.Diff(base, snap)
	if err != nil {
		return offloadOutcome{}, false, err
	}
	encoded, err := delta.Encode()
	if err != nil {
		return offloadOutcome{}, false, err
	}
	encodeDur := time.Since(encodeStart)
	timing.CaptureEncode = captureDur + encodeDur
	reply, err := o.conn.offloadBody(protocol.MsgSnapshotDelta, protocol.MsgResultDelta, o.app.ID(), encoded, o.opts.Compress)
	if err != nil {
		return offloadOutcome{traceID: reply.TraceID}, false, err
	}
	timing.RoundTrip = reply.RoundTrip
	applyStart := time.Now()
	resultDelta, err := snapshot.DecodeDelta(reply.Result)
	if err != nil {
		return offloadOutcome{traceID: reply.TraceID}, false, err
	}
	// The result delta is relative to the pre-execution state, which is
	// exactly the snapshot we just diffed from.
	result, err := resultDelta.Apply(snap)
	if err != nil {
		return offloadOutcome{traceID: reply.TraceID}, false, err
	}
	if err := result.ApplyTo(o.app, snapshot.RestoreOptions{}); err != nil {
		return offloadOutcome{traceID: reply.TraceID}, false, fmt.Errorf("client: apply delta result: %w", err)
	}
	timing.DecodeApply = time.Since(applyStart)
	tr := assembleTrace(reply, captureDur, encodeDur, timing.DecodeApply)
	o.rec.ObserveTrace(tr)
	o.mu.Lock()
	o.stats.Offloads++
	o.stats.DeltaOffloads++
	o.stats.LastSnapshotBytes = reply.WireBytes
	o.stats.LastResultBytes = int64(len(reply.Result))
	o.stats.LastModelIncluded = modelIncluded
	o.stats.LastInlineModelBytes = inlineBytes
	o.stats.LastTiming = timing
	o.stats.LastTrace = tr
	o.lastSync = result
	o.mu.Unlock()
	return offloadOutcome{traceID: tr.ID, delta: true, batch: tr.BatchSize,
		measured: timing.Total()}, true, nil
}
