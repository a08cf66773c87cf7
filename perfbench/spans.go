package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one benchmark-owned span: a public call into one module,
// timed from the benchmark's side. Spans of one request share Req; the
// request's root span is named "request" (or "handoff") and its self time
// is the benchmark glue between the calls.
type spanRec struct {
	Req     uint64  `json:"req"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	SelfUS  float64 `json:"self_us"`
	// Bytes is the payload the call produced or consumed (encoded
	// snapshot, result, model weights), when it has one.
	Bytes int64 `json:"bytes,omitempty"`
	// AllocB is the heap allocated during the call, recorded only by
	// the quiet replay (reading it stops the world).
	AllocB uint64 `json:"alloc_b,omitempty"`
}

// tracer keeps spans in memory; the run writes them out at exit.
type tracer struct {
	t0 time.Time
	// allocs makes every call also record its heap allocation.
	allocs bool
	next   atomic.Uint64

	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reqSpan is the root span of one request. A nil *reqSpan is valid and
// records nothing, so untraced paths share the call sites.
type reqSpan struct {
	tr       *tracer
	id       uint64
	name     string
	start    time.Time
	children time.Duration
}

// begin opens a root span; a nil tracer yields a nil (no-op) span.
func (t *tracer) begin(name string) *reqSpan {
	if t == nil {
		return nil
	}
	return &reqSpan{tr: t, id: t.next.Add(1), name: name, start: time.Now()}
}

// call runs fn inside a child span named name; fn returns the byte count
// to attach to the span (0 for none).
func (r *reqSpan) call(name string, fn func() (int64, error)) error {
	if r == nil {
		_, err := fn()
		return err
	}
	var a0 uint64
	if r.tr.allocs {
		a0 = totalAlloc()
	}
	s := time.Now()
	n, err := fn()
	d := time.Since(s)
	rec := spanRec{Req: r.id, Name: name, Parent: r.name, StartUS: us(s.Sub(r.tr.t0)),
		DurUS: us(d), SelfUS: us(d), Bytes: n}
	if r.tr.allocs {
		rec.AllocB = totalAlloc() - a0
	}
	r.children += d
	r.tr.add(rec)
	return err
}

// end closes the root span.
func (r *reqSpan) end() {
	if r == nil {
		return
	}
	d := time.Since(r.start)
	r.tr.add(spanRec{Req: r.id, Name: r.name, StartUS: us(r.start.Sub(r.tr.t0)),
		DurUS: us(d), SelfUS: us(d - r.children)})
}

func (t *tracer) add(s spanRec) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanMetrics maps span names to the per-call metrics derived from them.
var spanMetrics = map[string]string{
	"webapp.event":     "webapp.event_ms",
	"webapp.front":     "webapp.front_ms",
	"snapshot.capture": "snapshot.capture_ms",
	"snapshot.encode":  "snapshot.encode_ms",
	"snapshot.decode":  "snapshot.decode_ms",
	"snapshot.apply":   "snapshot.apply_ms",
	"client.roundtrip": "client.roundtrip_ms",
	"client.presend":   "client.presend_ms",
	"roam.switch":      "roam.switch_ms",
}

// medians returns the median per-call duration of every traced call, plus
// the median encoded request and result sizes.
func (t *tracer) medians() map[string]float64 {
	durs := map[string][]float64{}
	var reqBytes, resBytes []float64
	for _, s := range t.snapshot() {
		if m, ok := spanMetrics[s.Name]; ok {
			durs[m] = append(durs[m], s.DurUS/1000)
		}
		switch s.Name {
		case "snapshot.encode":
			reqBytes = append(reqBytes, float64(s.Bytes))
		case "snapshot.decode":
			resBytes = append(resBytes, float64(s.Bytes))
		}
	}
	out := map[string]float64{}
	for m, xs := range durs {
		out[m] = median(xs)
	}
	if len(reqBytes) > 0 {
		out["snapshot.req_bytes"] = median(reqBytes)
		out["snapshot.result_bytes"] = median(resBytes)
	}
	return out
}

// presendRate is the median pre-send throughput in MB/s (0 when no
// pre-send was traced).
func (t *tracer) presendRate() float64 {
	var rates []float64
	for _, s := range t.snapshot() {
		if s.Name == "client.presend" && s.DurUS > 0 {
			rates = append(rates, float64(s.Bytes)/(1<<20)/(s.DurUS/1e6))
		}
	}
	return median(rates)
}

// snapshotAllocKB is the median heap allocated per request by the
// snapshot module's calls (capture, encode, decode, apply), in kB.
func (t *tracer) snapshotAllocKB() float64 {
	perReq := map[uint64]uint64{}
	for _, s := range t.snapshot() {
		if strings.HasPrefix(s.Name, "snapshot.") {
			perReq[s.Req] += s.AllocB
		}
	}
	xs := make([]float64, 0, len(perReq))
	for _, b := range perReq {
		xs = append(xs, float64(b)/1024)
	}
	return median(xs)
}
