package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripAllTypes(t *testing.T) {
	tests := []struct {
		name   string
		msg    Message
		header any
	}{
		{"presend", mustEncode(t, MsgModelPreSend,
			ModelPreSendHeader{AppID: "a", ModelName: "m", Spec: json.RawMessage(`{"name":"m"}`), Partial: true},
			[]byte{1, 2, 3}), nil},
		{"ack", mustEncode(t, MsgAck, AckHeader{AppID: "a", ModelName: "m"}, nil), nil},
		{"snapshot", mustEncode(t, MsgSnapshot, SnapshotHeader{AppID: "a", Seq: 7}, []byte("// snap")), nil},
		{"result", mustEncode(t, MsgResultSnapshot, SnapshotHeader{AppID: "a", Seq: 7}, []byte("// snap")), nil},
		{"error", mustEncode(t, MsgError, ErrorHeader{Message: "boom"}, nil), nil},
		{"overlay", mustEncode(t, MsgInstallOverlay, InstallOverlayHeader{BaseImage: "ubuntu"}, []byte{9}), nil},
		{"done", mustEncode(t, MsgInstallDone, InstallDoneHeader{SynthesisMillis: 1900}, nil), nil},
		{"fleet-register", mustEncode(t, MsgFleetRegister,
			FleetRegisterHeader{Addr: "10.0.0.1:9000", Capacity: 4, TTLMillis: 3000,
				Load: &LoadHint{Workers: 4, Busy: 2}, Blobs: []string{"abc123", "def456"}},
			nil), nil},
		{"fleet-registered", mustEncode(t, MsgFleetRegistered, FleetRegisteredHeader{Servers: 3, Version: 17}, nil), nil},
		{"fleet-list", mustEncode(t, MsgFleetList, FleetListHeader{}, nil), nil},
		{"fleet-view", mustEncode(t, MsgFleetView,
			FleetViewHeader{Version: 17, Servers: []FleetServer{{Addr: "10.0.0.1:9000", Capacity: 4, AgeMillis: 120}}},
			nil), nil},
		{"blob-locate", mustEncode(t, MsgBlobLocate, BlobLocateHeader{Keys: []string{"abc123"}}, nil), nil},
		{"blob-location", mustEncode(t, MsgBlobLocation,
			BlobLocationHeader{Holders: map[string][]string{"abc123": {"10.0.0.1:9000"}}}, nil), nil},
		{"blob-get", mustEncode(t, MsgBlobGet, BlobGetHeader{Key: "abc123"}, nil), nil},
		{"blob-data", mustEncode(t, MsgBlobData, BlobDataHeader{Key: "abc123", BodyCRC: 7}, []byte{4, 5, 6}), nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Write(&buf, tt.msg); err != nil {
				t.Fatalf("Write: %v", err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if got.Type != tt.msg.Type {
				t.Errorf("type %s != %s", got.Type, tt.msg.Type)
			}
			if !bytes.Equal(got.Header, tt.msg.Header) {
				t.Error("header corrupted")
			}
			if !bytes.Equal(got.Body, tt.msg.Body) {
				t.Error("body corrupted")
			}
		})
	}
}

func mustEncode(t *testing.T, typ MsgType, header any, body []byte) Message {
	t.Helper()
	msg, err := Encode(typ, header, body)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func TestMultipleMessagesOnStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		msg := mustEncode(t, MsgAck, AckHeader{ModelName: "m"}, nil)
		if err := Write(&buf, msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := Read(&buf); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
	if _, err := Read(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("after stream end: %v, want EOF", err)
	}
}

func TestReadBadMagic(t *testing.T) {
	data := make([]byte, 18)
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadBadVersion(t *testing.T) {
	var buf bytes.Buffer
	msg := Message{Type: MsgAck, Header: []byte("{}")}
	if err := Write(&buf, msg); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestReadUnknownType(t *testing.T) {
	var buf bytes.Buffer
	msg := Message{Type: MsgAck, Header: []byte("{}")}
	if err := Write(&buf, msg); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[5] = 200
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrUnknownType) {
		t.Errorf("err = %v, want ErrUnknownType", err)
	}
}

func TestReadTruncated(t *testing.T) {
	var buf bytes.Buffer
	msg := mustEncode(t, MsgSnapshot, SnapshotHeader{AppID: "a"}, make([]byte, 100))
	if err := Write(&buf, msg); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{3, 17, 20, buf.Len() - 1} {
		if _, err := Read(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Errorf("truncated at %d decoded without error", cut)
		}
	}
}

func TestReadOversizedDeclared(t *testing.T) {
	var buf bytes.Buffer
	msg := Message{Type: MsgAck, Header: []byte("{}")}
	if err := Write(&buf, msg); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the declared body length to something enormous.
	for i := 10; i < 18; i++ {
		data[i] = 0xFF
	}
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestWriteTooLarge(t *testing.T) {
	msg := Message{Type: MsgAck, Header: make([]byte, MaxHeaderLen+1)}
	if err := Write(io.Discard, msg); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestDecodeHeader(t *testing.T) {
	msg := mustEncode(t, MsgAck, AckHeader{AppID: "a", ModelName: "m"}, nil)
	var hdr AckHeader
	if err := DecodeHeader(msg, &hdr); err != nil {
		t.Fatalf("DecodeHeader: %v", err)
	}
	if hdr.AppID != "a" || hdr.ModelName != "m" {
		t.Errorf("header = %+v", hdr)
	}
	msg.Header = []byte("not json")
	if err := DecodeHeader(msg, &hdr); err == nil {
		t.Error("bad JSON header should fail")
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgSnapshot.String() != "snapshot" {
		t.Errorf("MsgSnapshot = %q", MsgSnapshot)
	}
	if MsgType(99).String() != "unknown(99)" {
		t.Errorf("unknown = %q", MsgType(99))
	}
	for typ, want := range map[MsgType]string{
		MsgFleetRegister:   "fleet-register",
		MsgFleetRegistered: "fleet-registered",
		MsgFleetList:       "fleet-list",
		MsgFleetView:       "fleet-view",
		MsgBlobLocate:      "blob-locate",
		MsgBlobLocation:    "blob-location",
		MsgBlobGet:         "blob-get",
		MsgBlobData:        "blob-data",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ, want)
		}
	}
}

// TestRefPreSendHeaderCompat pins the wire keys of the fleet fields: a
// reference pre-send, its NeedBlob ack and a fleet pong encode each field
// under its documented JSON key and decode back unchanged.
func TestRefPreSendHeaderCompat(t *testing.T) {
	cases := []struct {
		name      string
		v, back   any
		key, want string
	}{
		{"presend blob key", ModelPreSendHeader{AppID: "a", ModelName: "m", Spec: json.RawMessage(`{}`), BlobKey: "k1", RefOnly: true},
			&ModelPreSendHeader{}, `"blobKey":"k1"`, `"refOnly":true`},
		{"ack need blob", AckHeader{AppID: "a", ModelName: "m", NeedBlob: true},
			&AckHeader{}, `"needBlob":true`, `"appId":"a"`},
		{"pong fleet", PongHeader{Installed: true, Fleet: true},
			&PongHeader{}, `"fleet":true`, `"installed":true`},
	}
	for _, tc := range cases {
		data, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, key := range []string{tc.key, tc.want} {
			if !strings.Contains(string(data), key) {
				t.Errorf("%s: %s missing from header: %s", tc.name, key, data)
			}
		}
		if err := json.Unmarshal(data, tc.back); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := reflect.ValueOf(tc.back).Elem().Interface(); !reflect.DeepEqual(got, tc.v) {
			t.Errorf("%s: round trip = %+v, want %+v", tc.name, got, tc.v)
		}
	}
}

// TestEmptyBodyOverPipe is a regression test: messages with empty bodies
// (ACKs, errors) must not deadlock on rendezvous transports like net.Pipe,
// where a zero-byte Write blocks for a Read that io.ReadFull(0) never
// issues.
func TestEmptyBodyOverPipe(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	msg := mustEncode(t, MsgAck, AckHeader{AppID: "x", ModelName: "m"}, nil)
	errCh := make(chan error, 1)
	go func() { errCh <- Write(a, msg) }()
	got, err := Read(b)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Type != MsgAck || len(got.Body) != 0 {
		t.Errorf("got %+v", got)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Write deadlocked on empty body")
	}
}

func TestCompressDecodeBody(t *testing.T) {
	text := []byte(strings.Repeat("var feature = [0.1,0.2,0.3];\n", 500))
	compressed, err := CompressBody(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(compressed) >= len(text)/2 {
		t.Errorf("snapshot-like text should compress well: %d vs %d", len(compressed), len(text))
	}
	plain, err := DecodeBody(compressed, EncodingFlate)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, text) {
		t.Error("compression round trip corrupted the body")
	}
	raw, err := DecodeBody(text, EncodingRaw)
	if err != nil || !bytes.Equal(raw, text) {
		t.Errorf("raw DecodeBody should pass through: %v", err)
	}
	if _, err := DecodeBody(text, "lzma"); err == nil {
		t.Error("unknown encoding should fail")
	}
	if _, err := DecodeBody([]byte("garbage not flate"), EncodingFlate); err == nil {
		t.Error("corrupt compressed body should fail")
	}
}

// Property: any header/body payload round-trips bit-exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(body []byte, app, model string) bool {
		msg, err := Encode(MsgModelPreSend, ModelPreSendHeader{
			AppID: app, ModelName: model, Spec: json.RawMessage(`{}`),
		}, body)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Write(&buf, msg); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return got.Type == msg.Type && bytes.Equal(got.Header, msg.Header) && bytes.Equal(got.Body, msg.Body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBodyChecksumVerify(t *testing.T) {
	body := []byte("var feature = [0.1,0.2];")
	sum := BodyChecksum(body)
	if sum == 0 {
		t.Fatal("checksum of non-empty body should be non-zero")
	}
	if err := VerifyBody(body, sum); err != nil {
		t.Errorf("matching checksum rejected: %v", err)
	}
	// Zero sum means "unchecked": always passes.
	if err := VerifyBody(body, 0); err != nil {
		t.Errorf("zero checksum must be skipped: %v", err)
	}
	corrupted := append([]byte(nil), body...)
	corrupted[5] ^= 0x40
	err := VerifyBody(corrupted, sum)
	if !errors.Is(err, ErrChecksum) {
		t.Errorf("err = %v, want ErrChecksum", err)
	}
}

// TestReadHugeClaimedBodyBoundedAlloc is a regression test: a frame header
// whose corrupted length prefix claims a body near MaxBodyLen (1 GiB) but
// whose stream ends after a few bytes must fail with a truncation error
// WITHOUT allocating the claimed size up front.
func TestReadHugeClaimedBodyBoundedAlloc(t *testing.T) {
	var buf bytes.Buffer
	msg := Message{Type: MsgSnapshot, Header: []byte("{}")}
	if err := Write(&buf, msg); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint64(data[10:18], MaxBodyLen) // claim 1 GiB
	data = append(data, []byte("only a few bytes arrive")...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated huge-claim frame decoded without error")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want unexpected-EOF truncation", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("Read allocated %d bytes for a body that never arrived; want bounded growth", grew)
	}
}

// TestReadLargeBodyStillRoundTrips pins that the chunked body reader
// reassembles multi-chunk bodies bit-exactly.
func TestReadLargeBodyStillRoundTrips(t *testing.T) {
	body := make([]byte, 3<<20+12345)
	for i := range body {
		body[i] = byte(i * 31)
	}
	var buf bytes.Buffer
	if err := Write(&buf, Message{Type: MsgSnapshot, Header: []byte("{}"), Body: body}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, body) {
		t.Error("multi-chunk body corrupted in reassembly")
	}
}
