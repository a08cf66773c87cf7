package chaos_test

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"websnap/internal/client"
	"websnap/internal/edge"
	"websnap/internal/fleet"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/protocol"
	"websnap/internal/telemetry"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

// The telemetry soak hammers the fleet trace plane and asserts its two
// standing invariants under -race:
//
//  1. Span parentage: every fleet-hop span a traced handoff produces
//     (registry_rpc, registry_locate, peer_fetch, blob_serve) appears
//     strictly BELOW the client's request root in one tree — never as an
//     orphan — and all of one handoff's entries share one 16-hex trace ID.
//  2. Flight ring byte cap: client- and server-side flight recorders never
//     exceed their configured byte cap at any sampled instant, even while
//     many goroutines record concurrently and the SLO path deposits slow
//     entries on every request.
//
// On failure the recorders' /debug/flight dumps are written under
// testdata/ so CI uploads them as artifacts next to failing soak seeds.

// dumpFlightOnFailure writes a flight recorder's JSON dump to testdata/
// when the test has failed, for the CI failure-artifact upload.
func dumpFlightOnFailure(t *testing.T, name string, f *telemetry.FlightRecorder) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		dir := filepath.Join("testdata", "flight")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("flight dump: %v", err)
			return
		}
		data, err := json.MarshalIndent(f.Dump(), "", "  ")
		if err != nil {
			t.Logf("flight dump: %v", err)
			return
		}
		path := filepath.Join(dir, t.Name()+"-"+name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Logf("flight dump: %v", err)
			return
		}
		t.Logf("flight dump written to %s", path)
	})
}

// telemetrySoakRegistry starts a wire registry for the telemetry soak.
func telemetrySoakRegistry(t *testing.T) string {
	t.Helper()
	srv := fleet.NewRegistryServer(fleet.NewRegistry(fleet.RegistryOptions{TTL: 2 * time.Second}), nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String()
}

// telemetrySoakEdge starts a fleet-enabled edge server with an
// aggressively tight SLO (every request deposits a slow flight entry) and
// a small flight ring, so the soak exercises cap-bounded concurrent
// recording on the server side too.
func telemetrySoakEdge(t *testing.T, registryAddr string, flightCap int64) (*edge.Server, string, *telemetry.FlightRecorder) {
	t.Helper()
	cat := webapp.NewCatalog()
	if err := cat.Add(mlapp.FullRegistry()); err != nil {
		t.Fatal(err)
	}
	flight := telemetry.NewFlightRecorder(flightCap)
	slo, err := telemetry.NewSLO(telemetry.SLOConfig{Name: "soak", Objective: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	rc := fleet.NewRegistryClient(registryAddr, fleet.ClientOptions{})
	srv, err := edge.NewServer(edge.Config{
		Catalog:       cat,
		Installed:     true,
		Workers:       2,
		AdvertiseAddr: addr,
		Blobs:         fleet.NewBlobStore(),
		Locator:       rc,
		SLO:           slo,
		Flight:        flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	agent, err := fleet.StartAgent(fleet.AgentConfig{
		Client:   rc,
		Addr:     addr,
		Capacity: 2,
		TTL:      2 * time.Second,
		Interval: 20 * time.Millisecond,
		Load:     srv.LoadHint,
		Blobs:    srv.BlobKeys,
		Stats:    srv.StatsDigest,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		agent.Close()
		srv.Close()
		<-done
	})
	return srv, addr, flight
}

// fleetHopOps are the span operations that cross process boundaries; the
// parentage invariant requires each to sit strictly below a client root.
var fleetHopOps = map[string]bool{
	"presend_resolve": true,
	"registry_rpc":    true,
	"registry_locate": true,
	"peer_fetch":      true,
	"blob_serve":      true,
}

// checkSpanParentage asserts invariant 1 on one handoff tree.
func checkSpanParentage(t *testing.T, session int, root *protocol.SpanNode) {
	t.Helper()
	if root == nil {
		t.Errorf("session %d: handoff produced no span tree", session)
		return
	}
	if root.Op != "handoff_presend" || root.Addr != "client" {
		t.Errorf("session %d: tree root = %s@%s, want handoff_presend@client", session, root.Op, root.Addr)
	}
	if fleetHopOps[root.Op] {
		t.Errorf("session %d: fleet-hop span %s is the root, not parented under the request", session, root.Op)
	}
	seen := map[string]int{}
	root.Walk(func(n *protocol.SpanNode) {
		if n != root && !fleetHopOps[n.Op] && n.Op != "handoff_presend" {
			t.Errorf("session %d: unknown span op %q in handoff tree", session, n.Op)
		}
		if n != root {
			seen[n.Op]++
		}
	})
	// The resolve hop is always below the root; the registry/peer hops
	// appear whenever the new server had to go to the fleet (they may be
	// absent on a warm ref hit, which is not a parentage violation).
	if seen["presend_resolve"] == 0 {
		t.Errorf("session %d: no presend_resolve below the client root (spans: %v)", session, seen)
	}
}

// TestTelemetrySoakInvariants drives many traced sessions
// through an A→B handoff each while hammering a shared client flight ring
// from concurrent recorders, then checks both invariants.
func TestTelemetrySoakInvariants(t *testing.T) {
	testutil.LeakCheck(t)
	regAddr := telemetrySoakRegistry(t)
	srvA, addrA, flightA := telemetrySoakEdge(t, regAddr, 8<<10)
	_, addrB, flightB := telemetrySoakEdge(t, regAddr, 8<<10)

	// A small shared client ring under heavy concurrent recording: the
	// byte cap must hold at every sampled instant.
	clientFlight := telemetry.NewFlightRecorder(4 << 10)
	dumpFlightOnFailure(t, "client", clientFlight)
	dumpFlightOnFailure(t, "server-a", flightA)
	dumpFlightOnFailure(t, "server-b", flightB)

	model, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}

	sessions := 8
	if testing.Short() {
		sessions = 4
	}
	stop := make(chan struct{})
	var hammer sync.WaitGroup
	// Concurrent cap watcher + background recorders on the shared ring.
	for g := 0; g < 4; g++ {
		hammer.Add(1)
		go func(g int) {
			defer hammer.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				clientFlight.Record(telemetry.FlightEntry{
					Reason: telemetry.FlightSlow,
					Note:   fmt.Sprintf("hammer %d-%d", g, i),
				})
				if got, cap := clientFlight.Bytes(), clientFlight.Cap(); got > cap {
					t.Errorf("client flight ring over cap: %d > %d", got, cap)
					return
				}
			}
		}(g)
	}

	// Sessions pause between their work on A and the A→B handoff until A's
	// heartbeat has indexed the model blob, so every handoff resolves by
	// reference deterministically.
	handoffReady := make(chan struct{})
	rc := fleet.NewRegistryClient(regAddr, fleet.ClientOptions{})
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			keys := srvA.BlobKeys()
			if len(keys) > 0 {
				holders, err := rc.Locate(keys)
				ok := err == nil
				for _, k := range keys {
					if len(holders[k]) == 0 {
						ok = false
					}
				}
				if ok {
					close(handoffReady)
					return
				}
			}
			if time.Now().After(deadline) {
				close(handoffReady)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	trees := make([]*protocol.SpanNode, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			connA, err := client.Dial(addrA)
			if err != nil {
				t.Errorf("session %d: dial A: %v", s, err)
				return
			}
			defer connA.Close()
			app, err := mlapp.NewFullApp(fmt.Sprintf("soak-app-%d", s), "tiny", model, tinyLabels)
			if err != nil {
				t.Errorf("session %d: %v", s, err)
				return
			}
			off, err := client.NewOffloader(app, connA, client.Options{
				OffloadEventTypes: []string{mlapp.EventClick},
				Models:            []client.ModelToSend{{Name: "tiny", Net: model}},
				BlobRefPreSend:    true,
				FleetSync:         true,
				Flight:            clientFlight,
			})
			if err != nil {
				t.Errorf("session %d: %v", s, err)
				return
			}
			off.StartPreSend()
			if err := off.WaitForAcks(); err != nil {
				t.Errorf("session %d: acks on A: %v", s, err)
				return
			}
			if err := mlapp.LoadImage(app, mlapp.SyntheticImage(soakImageVolume, uint64(s+1))); err != nil {
				t.Errorf("session %d: %v", s, err)
				return
			}
			app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
			if _, err := off.Run(10); err != nil {
				t.Errorf("session %d: run on A: %v", s, err)
				return
			}
			<-handoffReady
			connB, err := client.Dial(addrB)
			if err != nil {
				t.Errorf("session %d: dial B: %v", s, err)
				return
			}
			defer connB.Close()
			if err := off.Retarget(connB); err != nil {
				t.Errorf("session %d: retarget: %v", s, err)
				return
			}
			if err := off.WaitForAcks(); err != nil {
				t.Errorf("session %d: acks on B: %v", s, err)
				return
			}
			trees[s] = off.Stats().LastHandoffSpan
		}(s)
	}
	wg.Wait()
	close(stop)
	hammer.Wait()

	// Invariant 1 on every session's handoff tree.
	for s, tree := range trees {
		checkSpanParentage(t, s, tree)
	}

	// Invariant 2, final state: every ring within cap, dumps well-formed.
	for name, f := range map[string]*telemetry.FlightRecorder{
		"client": clientFlight, "server-a": flightA, "server-b": flightB,
	} {
		if f.Bytes() > f.Cap() {
			t.Errorf("%s flight ring over cap: %d > %d", name, f.Bytes(), f.Cap())
		}
		if _, err := json.Marshal(f.Dump()); err != nil {
			t.Errorf("%s flight dump does not marshal: %v", name, err)
		}
	}
	// The tight SLO made every served request a slow incident; the server
	// rings must have recorded (bounded) evidence.
	if flightA.Len() == 0 {
		t.Error("server A flight ring empty despite tight SLO")
	}
}
