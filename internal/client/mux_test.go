package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"websnap/internal/edge"
	"websnap/internal/mlapp"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

// TestNegotiateMuxEnablesConcurrency pins the handshake: a pong from a
// server of this protocol version flips the Conn to multiplexed operation,
// and many goroutines can then share it for interleaved round trips on
// the single underlying connection.
func TestNegotiateMuxEnablesConcurrency(t *testing.T) {
	testutil.LeakCheck(t)
	addr := startEdge(t, edge.Config{Installed: true, Workers: 2, QueueDepth: 64})
	conn := dialEdge(t, addr)

	ok, err := conn.NegotiateMux(32)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || !conn.Muxed() {
		t.Fatal("negotiation against a current server should enable mux")
	}

	model := tinyModel(t)
	if err := conn.PreSendModel("mux-app", "tiny", model, false); err != nil {
		t.Fatal(err)
	}
	app, err := mlapp.NewFullApp("mux-app", "tiny", model, []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 1)); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	snap, err := snapshot.Capture(app, snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}

	const streams = 24
	errs := make(chan error, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%3 == 0 {
				if _, _, err := conn.Ping(); err != nil {
					errs <- fmt.Errorf("stream %d ping: %w", i, err)
				}
				return
			}
			result, _, err := conn.OffloadSnapshot("mux-app", encoded, i%2 == 0)
			if err != nil {
				errs <- fmt.Errorf("stream %d offload: %w", i, err)
				return
			}
			if len(result) == 0 {
				errs <- fmt.Errorf("stream %d: empty result", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestNegotiateMuxOldServer pins the version handshake from the client
// side: a server that answers with version-1 frames fails the probe with
// an error matching protocol.ErrBadVersion, and the Conn is marked broken
// and stays serial.
func TestNegotiateMuxOldServer(t *testing.T) {
	testutil.LeakCheck(t)
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
		for {
			if _, err := protocol.Read(c); err != nil {
				return
			}
			// An old server: a well-formed pong, framed as version 1.
			msg, _ := protocol.Encode(protocol.MsgPong, protocol.PongHeader{Installed: true}, nil)
			if testutil.WriteFrameVersion(c, msg, 1) != nil {
				return
			}
		}
	}()

	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ok, err := conn.NegotiateMux(8)
	if !errors.Is(err, protocol.ErrBadVersion) {
		t.Fatalf("negotiate against a version-1 server: err = %v, want ErrBadVersion", err)
	}
	if ok || conn.Muxed() {
		t.Fatal("a refused negotiation must leave the Conn serial")
	}
	if !conn.Broken() {
		t.Fatal("Conn not marked broken after a version mismatch")
	}
	if _, _, err := conn.Ping(); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("request after a version mismatch returned %v, want fail-fast ErrConnBroken", err)
	}
}

// TestMuxTimeoutBreaksConn pins the timeout contract on a multiplexed
// stream: a response that never arrives fails the request with
// ErrConnBroken and poisons the Conn — the frame stream can no longer be
// trusted by any sibling stream.
func TestMuxTimeoutBreaksConn(t *testing.T) {
	testutil.LeakCheck(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	requests := make(chan struct{}, 8)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		n := 0
		for {
			msg, err := protocol.Read(c)
			if err != nil {
				return
			}
			n++
			if n == 1 {
				// Answer the negotiation probe.
				var ping protocol.PingHeader
				_ = protocol.DecodeHeader(msg, &ping)
				pong, _ := protocol.Encode(protocol.MsgPong,
					protocol.PongHeader{Installed: true, Seq: ping.Seq}, nil)
				if protocol.Write(c, pong) != nil {
					return
				}
				continue
			}
			// Swallow everything after the handshake.
			requests <- struct{}{}
		}
	}()

	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetRequestTimeout(100 * time.Millisecond)
	ok, err := conn.NegotiateMux(8)
	if err != nil || !ok {
		t.Fatalf("negotiate: ok=%v err=%v", ok, err)
	}

	if _, _, err := conn.Ping(); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("timed-out mux request returned %v, want ErrConnBroken", err)
	}
	if !conn.Broken() {
		t.Fatal("Conn not marked broken after a mux request timeout")
	}
	if _, _, err := conn.Ping(); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("request on a broken mux Conn returned %v, want fail-fast ErrConnBroken", err)
	}
	select {
	case <-requests:
	case <-time.After(time.Second):
		t.Fatal("server never saw the swallowed request")
	}
}

// TestMuxRedialHealsSharedConn pins recovery on a multiplexed Conn: after a
// timeout breaks the shared connection, one Redial restores service for
// every stream, keeping mux mode, and redundant concurrent Redials are
// harmless.
func TestMuxRedialHealsSharedConn(t *testing.T) {
	testutil.LeakCheck(t)
	addr := startEdge(t, edge.Config{Installed: true, Workers: 2, QueueDepth: 16})
	conn := dialEdge(t, addr)
	if ok, err := conn.NegotiateMux(8); err != nil || !ok {
		t.Fatalf("negotiate: ok=%v err=%v", ok, err)
	}
	conn.markBroken()

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := conn.Redial(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if conn.Broken() {
		t.Fatal("Conn still broken after Redial")
	}
	if !conn.Muxed() {
		t.Fatal("Redial dropped mux mode")
	}
	if installed, _, err := conn.Ping(); err != nil || !installed {
		t.Fatalf("mux Conn unusable after Redial: installed=%v err=%v", installed, err)
	}
}
