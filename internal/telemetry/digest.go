// Package telemetry is the fleet-wide observability plane built on top of
// internal/trace (span traces, mergeable histograms) and internal/obs
// (metrics registry, decision audit). It provides:
//
//   - stats digests: compact, lossless snapshots of a server's stage
//     histograms and decision counters, piggybacked on fleet heartbeats
//     (protocol.StatsDigest) and re-merged by fleetd into fleet-wide
//     exposition and per-server summaries (Rollup);
//   - an SLO engine: latency objectives with multi-window burn-rate
//     alerting over the same histogram bucket layout (SLO);
//   - a flight recorder: a byte-bounded ring of complete span trees and
//     joined audit decisions for slow, failed, and shed requests
//     (FlightRecorder), dumped via /debug/flight.
//
// Cross-process span propagation itself rides in the protocol package
// (SpanNode, attached whenever a request carries a TraceID); this package
// consumes the resulting trees.
package telemetry

import (
	"time"

	"websnap/internal/protocol"
	"websnap/internal/trace"
)

// DigestSource bundles the live signals one process folds into a
// StatsDigest snapshot. Every field is optional; nil suppliers leave the
// corresponding digest field empty.
type DigestSource struct {
	// Recorder supplies the per-stage latency histograms.
	Recorder *trace.Recorder
	// Decisions supplies cumulative request-outcome counters by path.
	Decisions func() map[string]uint64
	// QueueDepth supplies the scheduler admission-queue depth.
	QueueDepth func() int
	// StoreBytes supplies the session store's resident byte size.
	StoreBytes func() int64
	// Start is when the process began serving (for UptimeMillis).
	Start time.Time
	// Now is the clock; nil selects time.Now.
	Now func() time.Time
}

// Digest snapshots the source into a wire digest. Stages with zero
// observations are omitted, so an idle server's digest stays tiny.
func (s DigestSource) Digest() *protocol.StatsDigest {
	now := time.Now
	if s.Now != nil {
		now = s.Now
	}
	d := &protocol.StatsDigest{}
	if s.Recorder != nil {
		for _, stage := range trace.AllStages() {
			h := s.Recorder.Stage(stage)
			if h == nil || h.Count() == 0 {
				continue
			}
			buckets, count, sum := h.ExportBuckets()
			if d.Stages == nil {
				d.Stages = make(map[string]protocol.HistDigest)
			}
			d.Stages[string(stage)] = protocol.HistDigest{Buckets: buckets, Count: count, SumNanos: sum}
		}
	}
	if s.Decisions != nil {
		if m := s.Decisions(); len(m) > 0 {
			d.Decisions = m
		}
	}
	if s.QueueDepth != nil {
		d.QueueDepth = s.QueueDepth()
	}
	if s.StoreBytes != nil {
		d.StoreBytes = s.StoreBytes()
	}
	if !s.Start.IsZero() {
		d.UptimeMillis = now().Sub(s.Start).Milliseconds()
	}
	return d
}

// HistogramFromDigest reconstructs a mergeable histogram from one wire
// digest entry.
func HistogramFromDigest(d protocol.HistDigest) *trace.Histogram {
	h := &trace.Histogram{}
	h.MergeBuckets(d.Buckets, d.Count, d.SumNanos)
	return h
}

// MergeStage folds one digest's named stage into dst (no-op when the
// stage is absent from the digest).
func MergeStage(dst *trace.Histogram, d *protocol.StatsDigest, stage trace.Stage) {
	if d == nil || dst == nil {
		return
	}
	if hd, ok := d.Stages[string(stage)]; ok {
		dst.MergeBuckets(hd.Buckets, hd.Count, hd.SumNanos)
	}
}
