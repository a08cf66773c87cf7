package protocol

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestTelemetryHeaderCompat pins the wire keys of the telemetry fields:
// every header that carries a trace ID, a span tree, a stats digest or the
// stream wait encodes it under its documented JSON key and decodes it back
// unchanged.
func TestTelemetryHeaderCompat(t *testing.T) {
	span := &SpanNode{Op: "blob_serve", Micros: 3}
	cases := []struct {
		name    string
		v, back any
		key     string
	}{
		{"presend trace", ModelPreSendHeader{AppID: "a", ModelName: "m", Spec: json.RawMessage(`{}`), TraceID: "t1"}, &ModelPreSendHeader{}, `"traceId":"t1"`},
		{"ack span", AckHeader{AppID: "a", ModelName: "m", Span: span}, &AckHeader{}, `"span":{`},
		{"locate trace", BlobLocateHeader{Keys: []string{"k"}, TraceID: "t1"}, &BlobLocateHeader{}, `"traceId":"t1"`},
		{"location span", BlobLocationHeader{Holders: map[string][]string{"k": {"s"}}, Span: span}, &BlobLocationHeader{}, `"span":{`},
		{"blob get trace", BlobGetHeader{Key: "k", TraceID: "t1"}, &BlobGetHeader{}, `"traceId":"t1"`},
		{"blob data span", BlobDataHeader{Key: "k", BodyCRC: 1, Span: span}, &BlobDataHeader{}, `"span":{`},
		{"register stats", FleetRegisterHeader{Addr: "a", Capacity: 1, Stats: &StatsDigest{QueueDepth: 2}}, &FleetRegisterHeader{}, `"stats":{`},
		{"server trace stream wait", ServerTrace{TraceID: "t", ExecuteMicros: 5, StreamWaitMicros: 7}, &ServerTrace{}, `"streamWaitMicros":7`},
	}
	for _, tc := range cases {
		data, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.Contains(string(data), tc.key) {
			t.Errorf("%s: %s missing from header: %s", tc.name, tc.key, data)
		}
		if err := json.Unmarshal(data, tc.back); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := reflect.ValueOf(tc.back).Elem().Interface(); !reflect.DeepEqual(got, tc.v) {
			t.Errorf("%s: round trip = %+v, want %+v", tc.name, got, tc.v)
		}
	}
}

// TestServerTraceTotalIncludesStreamWait pins the honest wire-time
// derivation: the client subtracts the server's reported total from the
// round trip, so the semaphore wait a multiplexed request spent before
// service must count as server time, not network time.
func TestServerTraceTotalIncludesStreamWait(t *testing.T) {
	st := ServerTrace{DecodeMicros: 1, QueueMicros: 2, ExecuteMicros: 3, EncodeMicros: 4}
	if got := st.Total(); got != 10*time.Microsecond {
		t.Fatalf("Total without stream wait = %v, want 10µs", got)
	}
	st.StreamWaitMicros = 90
	if got := st.Total(); got != 100*time.Microsecond {
		t.Fatalf("Total with stream wait = %v, want 100µs", got)
	}
}

func TestSpanNodeWalkAndRoundTrip(t *testing.T) {
	root := &SpanNode{
		Op: "serve", Addr: "edge-a", Micros: 100, Detail: "app",
		Children: []*SpanNode{
			{Op: "execute", Micros: 60},
			{Op: "presend_resolve", Addr: "edge-b", Micros: 30, Children: []*SpanNode{
				{Op: "registry_locate", Addr: "reg", Micros: 5},
				{Op: "blob_serve", Addr: "edge-c", Micros: 20},
			}},
		},
	}
	var ops []string
	root.Walk(func(n *SpanNode) { ops = append(ops, n.Op) })
	want := []string{"serve", "execute", "presend_resolve", "registry_locate", "blob_serve"}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("Walk order = %v, want %v", ops, want)
	}
	data, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var back SpanNode
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, root) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, *root)
	}
	(*SpanNode)(nil).Walk(func(*SpanNode) { t.Fatal("nil walk visited a node") })
}

func TestStatsDigestRoundTrip(t *testing.T) {
	d := &StatsDigest{
		Stages: map[string]HistDigest{
			"execute": {Buckets: [][2]int64{{3, 7}, {9, 1}}, Count: 8, SumNanos: 12345},
		},
		Decisions:    map[string]uint64{"snapshot_full": 7, "shed": 1},
		QueueDepth:   2,
		StoreBytes:   1 << 20,
		UptimeMillis: 4200,
	}
	data, err := json.Marshal(FleetRegisterHeader{Addr: "a", Capacity: 1, Stats: d})
	if err != nil {
		t.Fatal(err)
	}
	var back FleetRegisterHeader
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Stats, d) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back.Stats, d)
	}
}
