package fleet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"websnap/internal/protocol"
	"websnap/internal/testutil"
)

// fakeClock drives registry expiry without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1700000000, 0)} }
func reg(addr string) protocol.FleetRegisterHeader {
	return protocol.FleetRegisterHeader{Addr: addr, Capacity: 4}
}

func TestRegistryTTLExpiry(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(RegistryOptions{TTL: time.Second, Now: clk.now})
	r.Register(reg("a:1"))
	r.Register(reg("b:1"))
	if got := r.Servers(); got != 2 {
		t.Fatalf("servers = %d, want 2", got)
	}
	clk.advance(900 * time.Millisecond)
	r.Register(reg("a:1")) // heartbeat keeps a alive
	clk.advance(200 * time.Millisecond)
	view := r.View()
	if len(view.Servers) != 1 || view.Servers[0].Addr != "a:1" {
		t.Fatalf("after expiry view = %+v, want only a:1", view.Servers)
	}
	clk.advance(2 * time.Second)
	if got := r.Servers(); got != 0 {
		t.Fatalf("after full lapse servers = %d, want 0", got)
	}
}

func TestRegistryPerServerTTL(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(RegistryOptions{TTL: time.Second, Now: clk.now})
	long := reg("long:1")
	long.TTLMillis = 10_000
	r.Register(long)
	r.Register(reg("short:1"))
	clk.advance(5 * time.Second)
	view := r.View()
	if len(view.Servers) != 1 || view.Servers[0].Addr != "long:1" {
		t.Fatalf("view = %+v, want only long:1", view.Servers)
	}
}

func TestRegistryReRegistrationAfterRestart(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(RegistryOptions{TTL: time.Second, Now: clk.now})
	first := reg("a:1")
	first.Blobs = []string{"m1", "s1"}
	_, v1 := r.Register(first)

	// Server dies; its registration lapses and its blobs leave the index.
	clk.advance(2 * time.Second)
	if got := r.Servers(); got != 0 {
		t.Fatalf("servers = %d, want 0 after lapse", got)
	}
	if holders := r.Locate([]string{"m1"}); len(holders) != 0 {
		t.Fatalf("expired server still in blob index: %v", holders)
	}

	// Restart: same address, fresh (smaller) blob set after cache loss.
	second := reg("a:1")
	second.Blobs = []string{"m1"}
	servers, v2 := r.Register(second)
	if servers != 1 {
		t.Fatalf("servers = %d after re-registration, want 1", servers)
	}
	if v2 <= v1 {
		t.Fatalf("version did not advance across restart: %d -> %d", v1, v2)
	}
	holders := r.Locate([]string{"m1", "s1"})
	if len(holders["m1"]) != 1 || holders["m1"][0] != "a:1" {
		t.Fatalf("m1 holders = %v", holders["m1"])
	}
	if _, ok := holders["s1"]; ok {
		t.Fatal("stale blob s1 survived re-registration with a smaller set")
	}
}

func TestRegistryViewAges(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(RegistryOptions{TTL: 10 * time.Second, Now: clk.now})
	r.Register(reg("a:1"))
	clk.advance(1500 * time.Millisecond)
	view := r.View()
	if got := view.Servers[0].AgeMillis; got != 1500 {
		t.Fatalf("AgeMillis = %d, want 1500", got)
	}
}

// startWireRegistry runs a RegistryServer on a real listener.
func startWireRegistry(t *testing.T, r *Registry) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewRegistryServer(r, nil)
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	return ln.Addr().String(), func() { srv.Close(); <-done }
}

func TestWireRegisterListLocate(t *testing.T) {
	r := NewRegistry(RegistryOptions{TTL: 10 * time.Second})
	addr, stop := startWireRegistry(t, r)
	defer stop()

	c := NewRegistryClient(addr, ClientOptions{})
	h := reg("edge-a:9000")
	h.Blobs = []string{"blob1"}
	ack, err := c.Register(h)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if ack.Servers != 1 || ack.Version == 0 {
		t.Fatalf("ack = %+v", ack)
	}
	view, err := c.FetchView()
	if err != nil {
		t.Fatalf("FetchView: %v", err)
	}
	if len(view.Servers) != 1 || view.Servers[0].Addr != "edge-a:9000" || view.Servers[0].Capacity != 4 {
		t.Fatalf("view = %+v", view.Servers)
	}
	holders, err := c.Locate([]string{"blob1", "missing"})
	if err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if len(holders) != 1 || holders["blob1"][0] != "edge-a:9000" {
		t.Fatalf("holders = %v", holders)
	}
}

func TestClientCachedViewFallback(t *testing.T) {
	r := NewRegistry(RegistryOptions{TTL: 10 * time.Second})
	r.Register(reg("a:1"))
	addr, stop := startWireRegistry(t, r)

	c := NewRegistryClient(addr, ClientOptions{Timeout: 500 * time.Millisecond})
	view, cached, err := c.View()
	if err != nil || cached {
		t.Fatalf("live View: cached=%v err=%v", cached, err)
	}
	if len(view.Servers) != 1 {
		t.Fatalf("view = %+v", view.Servers)
	}

	// Registry goes away: View degrades to the last-known-good copy.
	stop()
	view, cached, err = c.View()
	if err != nil {
		t.Fatalf("degraded View: %v", err)
	}
	if !cached {
		t.Fatal("degraded View not marked cached")
	}
	if len(view.Servers) != 1 || view.Servers[0].Addr != "a:1" {
		t.Fatalf("degraded view = %+v", view.Servers)
	}
}

func TestClientNoCacheNoRegistry(t *testing.T) {
	c := NewRegistryClient("127.0.0.1:1", ClientOptions{
		Timeout: 200 * time.Millisecond,
		Dial: func(string, time.Duration) (net.Conn, error) {
			return nil, errors.New("refused")
		},
	})
	if _, cached, err := c.View(); err == nil || cached {
		t.Fatalf("View with no cache: cached=%v err=%v, want error", cached, err)
	}
}

func TestAgentKeepsRegistrationLive(t *testing.T) {
	clk := struct{}{} // real clock: agent heartbeats are time-driven
	_ = clk
	r := NewRegistry(RegistryOptions{TTL: 400 * time.Millisecond})
	addr, stop := startWireRegistry(t, r)
	defer stop()

	a, err := StartAgent(AgentConfig{
		Client:   NewRegistryClient(addr, ClientOptions{}),
		Addr:     "edge-a:9000",
		Capacity: 2,
		TTL:      400 * time.Millisecond,
		Interval: 100 * time.Millisecond,
		Blobs:    func() []string { return []string{"m1"} },
	})
	if err != nil {
		t.Fatalf("StartAgent: %v", err)
	}
	time.Sleep(time.Second) // several TTLs: only heartbeats keep it alive
	if got := r.Servers(); got != 1 {
		t.Fatalf("servers = %d during heartbeats, want 1", got)
	}
	a.Close()
	time.Sleep(600 * time.Millisecond)
	if got := r.Servers(); got != 0 {
		t.Fatalf("servers = %d after agent close, want 0", got)
	}
}

func view(n int) []protocol.FleetServer {
	servers := make([]protocol.FleetServer, n)
	for i := range servers {
		servers[i] = protocol.FleetServer{Addr: fmt.Sprintf("edge-%d:9000", i), Capacity: 4}
	}
	return servers
}

func TestPlacementDeterministic(t *testing.T) {
	servers := view(5)
	for _, policy := range []Policy{PolicyHash, PolicyLoadWeighted} {
		first, _ := Pick(policy, "session-42", servers)
		for i := 0; i < 10; i++ {
			again, ok := Pick(policy, "session-42", servers)
			if !ok || again.Addr != first.Addr {
				t.Fatalf("%s: placement not deterministic: %s vs %s", policy, again.Addr, first.Addr)
			}
		}
	}
}

func TestPlacementBalance(t *testing.T) {
	servers := view(4)
	counts := make(map[string]int)
	const n = 4000
	for i := 0; i < n; i++ {
		s, _ := Pick(PolicyHash, fmt.Sprintf("session-%d", i), servers)
		counts[s.Addr]++
	}
	for addr, c := range counts {
		if c < n/8 || c > n/2 {
			t.Errorf("%s got %d/%d sessions — badly unbalanced", addr, c, n)
		}
	}
}

// TestPlacementStability is the rendezvous property: removing one server
// remaps only the sessions it owned.
func TestPlacementStability(t *testing.T) {
	servers := view(5)
	removed := servers[2].Addr
	reduced := append(append([]protocol.FleetServer{}, servers[:2]...), servers[3:]...)
	moved, owned := 0, 0
	for i := 0; i < 2000; i++ {
		id := fmt.Sprintf("session-%d", i)
		before, _ := Pick(PolicyHash, id, servers)
		after, _ := Pick(PolicyHash, id, reduced)
		if before.Addr == removed {
			owned++
			continue // these must move somewhere
		}
		if after.Addr != before.Addr {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d sessions not owned by the removed server still moved", moved)
	}
	if owned == 0 {
		t.Fatal("test vacuous: removed server owned no sessions")
	}
}

func TestPlacementLoadWeighting(t *testing.T) {
	// Same capacity, but edge-0 advertises heavy queueing: it should lose
	// most (not necessarily all) placements relative to its fair share.
	servers := view(3)
	servers[0].Load = &protocol.LoadHint{QueueingMillis: 500}
	counts := make(map[string]int)
	const n = 3000
	for i := 0; i < n; i++ {
		s, _ := Pick(PolicyLoadWeighted, fmt.Sprintf("s%d", i), servers)
		counts[s.Addr]++
	}
	if counts[servers[0].Addr] >= n/3 {
		t.Fatalf("queued server kept its full share: %v", counts)
	}
	// PolicyHash must ignore load entirely.
	hashCounts := make(map[string]int)
	for i := 0; i < n; i++ {
		s, _ := Pick(PolicyHash, fmt.Sprintf("s%d", i), servers)
		hashCounts[s.Addr]++
	}
	if hashCounts[servers[0].Addr] < n/6 {
		t.Fatalf("hash policy reacted to load: %v", hashCounts)
	}
}

func TestPlacementSaturatedLast(t *testing.T) {
	servers := view(3)
	servers[1].Load = &protocol.LoadHint{Saturated: true}
	for i := 0; i < 200; i++ {
		ranked := Rank(PolicyLoadWeighted, fmt.Sprintf("s%d", i), servers)
		if ranked[len(ranked)-1].Addr != servers[1].Addr {
			t.Fatalf("saturated server not ranked last: %+v", ranked)
		}
	}
}

func TestPickEmptyView(t *testing.T) {
	if _, ok := Pick(PolicyHash, "s", nil); ok {
		t.Fatal("Pick on empty view returned a server")
	}
}

func TestBlobStore(t *testing.T) {
	b := NewBlobStore()
	b.Put("k1", []byte("hello"))
	b.Put("k1", []byte("ignored")) // content-addressed: first copy wins
	b.Put("", []byte("dropped"))
	if got, _ := b.Get("k1"); string(got) != "hello" {
		t.Fatalf("Get k1 = %q", got)
	}
	if b.Len() != 1 || b.Bytes() != 5 {
		t.Fatalf("Len=%d Bytes=%d", b.Len(), b.Bytes())
	}
	b.Put("k0", []byte("x"))
	keys := b.Keys()
	if len(keys) != 2 || keys[0] != "k0" || keys[1] != "k1" {
		t.Fatalf("Keys = %v", keys)
	}
	if !b.Has("k0") || b.Has("nope") {
		t.Fatal("Has mismatch")
	}
}

// TestRegistryRefusesBadVersion pins the version handshake at the
// registry: a version-1 frame is answered with one MsgError naming the
// version, and the registry then closes the connection.
func TestRegistryRefusesBadVersion(t *testing.T) {
	addr, stop := startWireRegistry(t, NewRegistry(RegistryOptions{}))
	defer stop()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg, err := protocol.Encode(protocol.MsgFleetList, protocol.FleetListHeader{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := testutil.WriteFrameVersion(c, msg, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := protocol.Read(c)
	if err != nil {
		t.Fatalf("read refusal: %v", err)
	}
	var hdr protocol.ErrorHeader
	if resp.Type != protocol.MsgError || protocol.DecodeHeader(resp, &hdr) != nil {
		t.Fatalf("response = %s %s, want an error frame", resp.Type, resp.Header)
	}
	if !strings.Contains(hdr.Message, "version") || !strings.Contains(hdr.Message, "1") {
		t.Errorf("error message %q does not name the version", hdr.Message)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Errorf("after the refusal: read err = %v, want EOF", err)
	}
}

// TestRegistryClientRejectsOldRegistry pins the handshake from the client
// side: a registry answering with version-1 frames fails the request with
// an error matching protocol.ErrBadVersion.
func TestRegistryClientRejectsOldRegistry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := protocol.Read(c); err != nil {
			return
		}
		view, _ := protocol.Encode(protocol.MsgFleetView, protocol.FleetViewHeader{Version: 1}, nil)
		_ = testutil.WriteFrameVersion(c, view, 1)
	}()
	c := NewRegistryClient(ln.Addr().String(), ClientOptions{Timeout: 5 * time.Second})
	if _, err := c.FetchView(); !errors.Is(err, protocol.ErrBadVersion) {
		t.Fatalf("FetchView from a version-1 registry: err = %v, want ErrBadVersion", err)
	}
}
