package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"websnap/internal/trace"
)

// Open-loop health bounds: a run whose generator fell further behind its
// schedule, or that ended with more requests outstanding, did not offer
// the load it claims and is reported invalid.
const (
	genLagBoundMs = 20.0
	// backlogBoundSec is the end-of-window backlog bound in seconds of
	// arrivals at the offered rate.
	backlogBoundSec = 0.25
)

// phase accumulates one measured window. Every method is safe for
// concurrent use by the workload's user goroutines.
type phase struct {
	mu    sync.Mutex
	start time.Time

	// lat is each completed inference's latency in ms; done is its
	// completion time in seconds since start (for time slicing).
	lat  []float64
	done []float64

	attempted int
	completed int
	errors    int
	wrong     int
	fallbacks int
	wire      int64

	// Client counters summed from the offloaders' Stats deltas.
	offloads, deltas, deltaFallbacks, redials int
	// demux receives the mux connection's response-routing latencies.
	demux *trace.Recorder

	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	// peakRSS is the process's peak resident set when the window closed,
	// before any report-only phase that follows it.
	peakRSS float64

	// Open loop only: the offered rate, how late the generator ran, and
	// the requests outstanding when the window closed.
	rate       float64
	genLag     []float64
	backlogEnd int
	// fixed is the open-loop window at the fixed rate and ladder the rate
	// ladder it starts, when the workload has them.
	fixed  *phase
	ladder []ladderStep

	// Roaming only: switch-to-first-result times in ms.
	handoffs []float64
}

// ladderStep is one rung of the open-loop rate ladder.
type ladderStep struct {
	rate   float64
	p99    float64
	failed int
	pass   bool
}

func newPhase() *phase {
	return &phase{demux: trace.NewRecorder()}
}

// begin marks the start of the measured window.
func (p *phase) begin() {
	p.start = time.Now()
	p.cpu = cpuTime()
	p.alloc = totalAlloc()
}

// end closes the measured window.
func (p *phase) end() {
	p.wall = time.Since(p.start)
	p.cpu = cpuTime() - p.cpu
	p.alloc = totalAlloc() - p.alloc
	p.peakRSS = peakRSSMB()
}

// record accounts one attempted inference. from is when the request was
// due (open loop) or issued (closed loop).
func (p *phase) record(from time.Time, o outcome, err error, ok bool) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	p.offloads += o.offloads
	p.deltas += o.deltas
	p.deltaFallbacks += o.deltaFallbacks
	p.redials += o.redials
	p.wire += o.wire
	switch {
	case err != nil:
		p.errors++
		return
	case o.fallback:
		p.fallbacks++
	case !ok:
		p.wrong++
	}
	p.completed++
	p.lat = append(p.lat, float64(now.Sub(from))/float64(time.Millisecond))
	p.done = append(p.done, now.Sub(p.start).Seconds())
}

// failures counts every request that did not produce a correct offloaded
// result: errors and refusals, wrong results, and local fallbacks.
func (p *phase) failures() int { return p.errors + p.wrong + p.fallbacks }

// endToEnd derives the gated metric set from the window.
func (p *phase) endToEnd() map[string]float64 {
	n := float64(max(p.completed, 1))
	return map[string]float64{
		"latency_p50_ms":     quantile(p.lat, 0.50),
		"latency_p90_ms":     quantile(p.lat, 0.90),
		"throughput_rps":     float64(p.completed) / p.wall.Seconds(),
		"wire_bytes_per_req": float64(p.wire) / n,
		"cpu_ms_per_req":     float64(p.cpu) / float64(time.Millisecond) / n,
		"alloc_mb_per_req":   float64(p.alloc) / (1 << 20) / n,
		"peak_rss_mb":        p.peakRSS,
	}
}

// extra derives the report-only figures that apply to this window.
func (p *phase) extra() map[string]float64 {
	out := map[string]float64{
		"failed_frac": float64(p.failures()) / float64(max(p.attempted, 1)),
	}
	if len(p.lat) >= 1000 {
		// Enough samples to leave ten beyond p99.
		out["latency_p99_ms"] = quantile(p.lat, 0.99)
	}
	if f := p.fixed; f != nil {
		out["open_latency_p50_ms"] = quantile(f.lat, 0.50)
		out["open_latency_p90_ms"] = quantile(f.lat, 0.90)
		out["open_latency_p99_ms"] = quantile(f.lat, 0.99)
		out["gen_lag_p50_ms"] = quantile(f.genLag, 0.50)
		out["gen_lag_p99_ms"] = quantile(f.genLag, 0.99)
		out["backlog_end"] = float64(f.backlogEnd)
		best := 0.0
		for _, s := range p.ladder {
			if s.pass {
				best = s.rate
			}
		}
		out["max_rate_rps"] = best
	}
	if len(p.handoffs) > 0 {
		out["handoff_ms"] = median(p.handoffs)
		out["handoffs"] = float64(len(p.handoffs))
	}
	return out
}

// invalid explains why the fixed-rate open-loop window did not offer its
// load, or returns "".
func (p *phase) invalid() string {
	f := p.fixed
	if f == nil {
		return ""
	}
	var why []string
	if lag := quantile(f.genLag, 0.99); lag > genLagBoundMs {
		why = append(why, fmt.Sprintf("generator lag p99 %.1f ms > %.0f ms", lag, genLagBoundMs))
	}
	if bound := f.rate * backlogBoundSec; float64(f.backlogEnd) > bound {
		why = append(why, fmt.Sprintf("backlog %d > %.0f requests at window end", f.backlogEnd, bound))
	}
	return strings.Join(why, "; ")
}

// sliceMedians splits the window into k equal time slices and returns the
// median latency of each non-empty slice: the within-run spread.
func (p *phase) sliceMedians(k int) []float64 {
	if len(p.done) == 0 {
		return nil
	}
	span := p.wall.Seconds() / float64(k)
	buckets := make([][]float64, k)
	for i, t := range p.done {
		b := int(t / span)
		if b >= k {
			b = k - 1
		}
		buckets[b] = append(buckets[b], p.lat[i])
	}
	var out []float64
	for _, b := range buckets {
		if len(b) > 0 {
			out = append(out, median(b))
		}
	}
	return out
}

func (p *phase) ladderNote() string {
	parts := make([]string, len(p.ladder))
	for i, s := range p.ladder {
		verdict := "pass"
		if !s.pass {
			verdict = "fail"
		}
		parts[i] = fmt.Sprintf("%.0f/s p99 %.1f ms failed %d %s", s.rate, s.p99, s.failed, verdict)
	}
	return strings.Join(parts, "; ")
}
