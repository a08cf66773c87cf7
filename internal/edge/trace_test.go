package edge

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"websnap/internal/mlapp"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/trace"
	"websnap/internal/webapp"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the trace log.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// offloadRaw performs one snapshot offload at the raw protocol level with
// a chosen trace ID, and returns the response header.
func offloadRaw(t *testing.T, addr string, traceID string) protocol.SnapshotHeader {
	t.Helper()
	model := tinyModel(t, "tiny")
	app, err := mlapp.NewFullApp("trace-app", "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 7)); err != nil {
		t.Fatal(err)
	}
	ev := webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick}
	snap, err := snapshot.Capture(app, snapshot.Options{PendingEvent: &ev})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req, err := protocol.Encode(protocol.MsgSnapshot, protocol.SnapshotHeader{
		AppID: "trace-app", Seq: 1, TraceID: traceID,
	}, wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.Write(c, req); err != nil {
		t.Fatal(err)
	}
	resp, err := protocol.Read(c)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != protocol.MsgResultSnapshot {
		t.Fatalf("response type = %s, want %s", resp.Type, protocol.MsgResultSnapshot)
	}
	var hdr protocol.SnapshotHeader
	if err := protocol.DecodeHeader(resp, &hdr); err != nil {
		t.Fatal(err)
	}
	return hdr
}

// TestServerTraceAlwaysAttached checks that every snapshot response
// carries the server's span report and load hint: a traced request gets
// its trace ID echoed, an untraced one the same report without an ID.
func TestServerTraceAlwaysAttached(t *testing.T) {
	srv, addr := startServer(t, Config{Installed: true})

	for _, traceID := range []string{"00aa11bb22cc33dd", ""} {
		hdr := offloadRaw(t, addr, traceID)
		if hdr.ServerTrace == nil {
			t.Fatalf("trace %q: no ServerTrace in response", traceID)
		}
		if hdr.ServerTrace.TraceID != traceID {
			t.Errorf("ServerTrace.TraceID = %q, want the request's trace ID %q", hdr.ServerTrace.TraceID, traceID)
		}
		if hdr.ServerTrace.ExecuteMicros <= 0 {
			t.Errorf("ExecuteMicros = %d, want > 0", hdr.ServerTrace.ExecuteMicros)
		}
		if hdr.ServerTrace.BatchSize < 1 {
			t.Errorf("BatchSize = %d, want >= 1", hdr.ServerTrace.BatchSize)
		}
		if hdr.Load == nil {
			t.Errorf("trace %q: no load hint in response", traceID)
		}
	}

	// Both offloads land in the server's histograms, the stream wait too.
	for _, stage := range []trace.Stage{trace.StageExecute, trace.StageQueue, trace.StageStreamWait} {
		if got := srv.TraceRecorder().Stage(stage).Count(); got != 2 {
			t.Errorf("server %s-stage observations = %d, want 2", stage, got)
		}
	}
}

// TestTraceLogLines checks that Config.TraceLog receives one well-formed
// JSON line per offload with the span breakdown.
func TestTraceLogLines(t *testing.T) {
	var buf syncBuffer
	_, addr := startServer(t, Config{Installed: true, TraceLog: &buf})
	offloadRaw(t, addr, "feedfacedeadbeef")
	offloadRaw(t, addr, "")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var first struct {
		TraceID       string `json:"traceId"`
		AppID         string `json:"appId"`
		Seq           uint64 `json:"seq"`
		ExecuteMicros int64  `json:"executeMicros"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("trace log line not JSON: %v\n%s", err, lines[0])
	}
	if first.TraceID != "feedfacedeadbeef" || first.AppID != "trace-app" || first.Seq != 1 {
		t.Errorf("trace log line = %+v", first)
	}
	if first.ExecuteMicros <= 0 {
		t.Errorf("ExecuteMicros = %d, want > 0", first.ExecuteMicros)
	}
}

// TestMetricsPrometheus checks the Prometheus text exposition of /metrics:
// counters, gauges, and per-stage histograms with monotonically increasing
// cumulative le buckets, while the default JSON shape stays intact.
func TestMetricsPrometheus(t *testing.T) {
	srv, addr := startServer(t, Config{Installed: true})
	offloadRaw(t, addr, "0123456789abcdef")

	h := srv.MetricsHandler()

	// Default: the original JSON payload (existing consumers unaffected).
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("default Content-Type = %q, want JSON", ct)
	}
	var payload struct {
		Installed bool `json:"installed"`
		Metrics   struct {
			SnapshotsExecuted int64 `json:"SnapshotsExecuted"`
		} `json:"metrics"`
		Stages []struct {
			Stage string `json:"Stage"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatalf("JSON metrics: %v", err)
	}
	if !payload.Installed || payload.Metrics.SnapshotsExecuted != 1 || len(payload.Stages) == 0 {
		t.Errorf("JSON payload = %+v", payload)
	}

	// Prometheus text exposition via ?format=prometheus.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics?format=prometheus", nil))
	body := rr.Body.String()
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE websnap_snapshots_executed_total counter",
		"websnap_snapshots_executed_total 1",
		"# TYPE websnap_installed gauge",
		"websnap_installed 1",
		"# TYPE websnap_stage_seconds histogram",
		`websnap_stage_seconds_bucket{stage="execute",le="+Inf"} 1`,
		`websnap_stage_seconds_count{stage="execute"} 1`,
		`websnap_stage_seconds_sum{stage="execute"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	assertCumulativeBuckets(t, body, "execute")

	// The Accept header alone also selects text exposition.
	rr = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	h.ServeHTTP(rr, req)
	if !strings.Contains(rr.Body.String(), "# TYPE websnap_installed gauge") {
		t.Error("Accept: text/plain did not select the Prometheus format")
	}
}

// assertCumulativeBuckets verifies the le buckets of one stage are emitted
// in increasing le order with non-decreasing cumulative counts.
func assertCumulativeBuckets(t *testing.T, body, stage string) {
	t.Helper()
	prefix := `websnap_stage_seconds_bucket{stage="` + stage + `",le="`
	lastLE := -1.0
	lastCum := uint64(0)
	n := 0
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := strings.TrimPrefix(line, prefix)
		i := strings.Index(rest, `"}`)
		if i < 0 {
			t.Fatalf("malformed bucket line %q", line)
		}
		leStr, countStr := rest[:i], strings.TrimSpace(rest[i+2:])
		cum, err := strconv.ParseUint(countStr, 10, 64)
		if err != nil {
			t.Fatalf("bucket count %q: %v", countStr, err)
		}
		if leStr != "+Inf" {
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("bucket le %q: %v", leStr, err)
			}
			if le <= lastLE {
				t.Errorf("bucket le %v not increasing (prev %v)", le, lastLE)
			}
			lastLE = le
		}
		if cum < lastCum {
			t.Errorf("bucket count %d decreased (prev %d)", cum, lastCum)
		}
		lastCum = cum
		n++
	}
	if n < 2 {
		t.Errorf("expected at least one occupied bucket plus +Inf for stage %s, got %d lines", stage, n)
	}
}
