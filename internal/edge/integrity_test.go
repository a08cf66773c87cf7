package edge

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"websnap/internal/mlapp"
	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/webapp"
)

// rawRequest sends one framed request and returns the raw response.
func rawRequest(t *testing.T, addr string, req protocol.Message) protocol.Message {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := protocol.Write(c, req); err != nil {
		t.Fatal(err)
	}
	resp, err := protocol.Read(c)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// encodeClickSnapshot captures a ready-to-offload click snapshot.
func encodeClickSnapshot(t *testing.T, appID string, model *nn.Network) []byte {
	t.Helper()
	app, err := mlapp.NewFullApp(appID, "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 5)); err != nil {
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
	return wire
}

// TestSnapshotChecksumRejected is a regression test: a snapshot body that
// fails its header checksum must be answered with a typed checksum error and
// must never reach the scheduler — a single flipped bit in the feature
// array would otherwise execute and return a plausible-but-wrong result.
func TestSnapshotChecksumRejected(t *testing.T) {
	srv, addr := startServer(t, Config{Installed: true})
	wire := encodeClickSnapshot(t, "crc-app", tinyModel(t, "tiny"))
	sum := protocol.BodyChecksum(wire)
	wire[len(wire)/2] ^= 0x04 // corrupt after checksumming

	req, err := protocol.Encode(protocol.MsgSnapshot, protocol.SnapshotHeader{
		AppID: "crc-app", Seq: 1, BodyCRC: sum,
	}, wire)
	if err != nil {
		t.Fatal(err)
	}
	resp := rawRequest(t, addr, req)
	if resp.Type != protocol.MsgError {
		t.Fatalf("response type = %s, want error", resp.Type)
	}
	var hdr protocol.ErrorHeader
	if err := protocol.DecodeHeader(resp, &hdr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hdr.Message, "checksum") {
		t.Errorf("error message %q does not name the checksum", hdr.Message)
	}
	if m := srv.Metrics(); m.SnapshotsExecuted != 0 {
		t.Errorf("corrupted snapshot was executed (%d executions)", m.SnapshotsExecuted)
	}
}

// TestModelPreSendChecksumRejected: corrupted model weights must be refused
// before they are stored.
func TestModelPreSendChecksumRejected(t *testing.T) {
	srv, addr := startServer(t, Config{Installed: true})
	model := tinyModel(t, "tiny")
	spec, err := nn.EncodeSpec(model)
	if err != nil {
		t.Fatal(err)
	}
	var weights bytes.Buffer
	if err := model.EncodeWeights(&weights); err != nil {
		t.Fatal(err)
	}
	blob := weights.Bytes()
	sum := protocol.BodyChecksum(blob)
	blob[7] ^= 0x80

	req, err := protocol.Encode(protocol.MsgModelPreSend, protocol.ModelPreSendHeader{
		AppID: "crc-app", ModelName: "tiny", Spec: spec, BodyCRC: sum,
	}, blob)
	if err != nil {
		t.Fatal(err)
	}
	resp := rawRequest(t, addr, req)
	if resp.Type != protocol.MsgError {
		t.Fatalf("response type = %s, want error", resp.Type)
	}
	if m := srv.Metrics(); m.ModelsStored != 0 {
		t.Errorf("corrupted model was stored (%d stores)", m.ModelsStored)
	}
	if _, ok := srv.Store().Get("crc-app", "tiny"); ok {
		t.Error("corrupted model present in the store")
	}
}

// TestResponseChecksumAlwaysAttached checks that every snapshot response
// carries a checksum its body verifies against, whether or not the request
// itself was checksummed.
func TestResponseChecksumAlwaysAttached(t *testing.T) {
	_, addr := startServer(t, Config{Installed: true})
	model := tinyModel(t, "tiny")

	offload := func(checksummed bool) protocol.SnapshotHeader {
		wire := encodeClickSnapshot(t, "crc-gate", model)
		hdr := protocol.SnapshotHeader{AppID: "crc-gate", Seq: 1}
		if checksummed {
			hdr.BodyCRC = protocol.BodyChecksum(wire)
		}
		req, err := protocol.Encode(protocol.MsgSnapshot, hdr, wire)
		if err != nil {
			t.Fatal(err)
		}
		resp := rawRequest(t, addr, req)
		if resp.Type != protocol.MsgError {
			var rh protocol.SnapshotHeader
			if err := protocol.DecodeHeader(resp, &rh); err != nil {
				t.Fatal(err)
			}
			if err := protocol.VerifyBody(resp.Body, rh.BodyCRC); err != nil {
				t.Fatalf("response failed its own checksum: %v", err)
			}
			return rh
		}
		t.Fatalf("offload (checksummed=%v) answered with error", checksummed)
		return protocol.SnapshotHeader{}
	}

	for _, checksummed := range []bool{true, false} {
		if hdr := offload(checksummed); hdr.BodyCRC == 0 {
			t.Errorf("request checksummed=%v: response carries no checksum", checksummed)
		}
	}
}
