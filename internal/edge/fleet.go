package edge

import (
	"errors"
	"fmt"
	"net"
	"time"

	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/trace"
)

// The edge server participates in a fleet through two narrow interfaces
// instead of importing the fleet package (whose tests import edge): a
// content-addressed cache it publishes into and serves peers from, and a
// locator that maps blob keys to peer addresses. cmd/edged wires these to
// fleet.BlobStore and fleet.RegistryClient.

// BlobCache is a content-addressed blob cache (fleet.BlobStore implements
// it). Keys are nn.Fingerprint for model weight blobs and Snapshot.Hash
// for synced-state blobs.
type BlobCache interface {
	Put(key string, data []byte)
	Get(key string) ([]byte, bool)
	Keys() []string
}

// BlobLocator reports which fleet peers hold each blob key
// (fleet.RegistryClient implements it).
type BlobLocator interface {
	Locate(keys []string) (map[string][]string, error)
}

// tracedLocator is the optional telemetry upgrade of BlobLocator
// (fleet.RegistryClient implements it): the locate propagates the
// request's trace ID through the registry hop and returns the registry's
// span for the merged tree. Discovered by interface assertion so edge
// keeps not importing fleet.
type tracedLocator interface {
	LocateTraced(keys []string, traceID string) (map[string][]string, *protocol.SpanNode, error)
}

// spanTrail accumulates the fleet-hop spans of one traced request as it
// crosses processes: registry locates and peer fetches append their
// SpanNodes here, and the request handler parents them all under one root
// carried back on the response. A nil trail means the request carried no
// TraceID; the hops still happen, they just aren't reported.
type spanTrail struct {
	traceID string
	spans   []*protocol.SpanNode
}

// add appends a span to the trail (nil-safe).
func (t *spanTrail) add(n *protocol.SpanNode) {
	if t != nil && n != nil {
		t.spans = append(t.spans, n)
	}
}

// id returns the propagated trace ID ("" for untraced requests).
func (t *spanTrail) id() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// peerFetchTimeout bounds one peer-to-peer blob fetch (dial + request +
// transfer).
const peerFetchTimeout = 5 * time.Second

// errBlobUnavailable reports a blob neither cached locally nor fetchable
// from any peer; the pre-send path answers it with a NeedBlob ack so the
// client re-sends the bytes.
var errBlobUnavailable = errors.New("edge: blob unavailable in fleet")

// fleetEnabled reports whether this server shares blobs with a fleet.
func (s *Server) fleetEnabled() bool { return s.cfg.Blobs != nil }

// LoadHint returns the server's current scheduling load, as advertised on
// response headers and registry heartbeats.
func (s *Server) LoadHint() *protocol.LoadHint { return s.loadHint() }

// BlobKeys returns the content-addressed keys this server currently holds
// — the set a registry heartbeat advertises, hot (recently used) end
// first so a capped advertisement keeps the keys peers most likely want.
// Nil when fleet sharing is disabled.
func (s *Server) BlobKeys() []string {
	if !s.fleetEnabled() {
		return nil
	}
	if mru, ok := s.cfg.Blobs.(interface{ KeysMRU(max int) []string }); ok {
		return mru.KeysMRU(0)
	}
	return s.cfg.Blobs.Keys()
}

// resolveBlob returns the blob for key from the local cache or, failing
// that, from a fleet peer found through the locator. verify (optional)
// judges candidate bytes BEFORE they are cached or returned — content
// verification must happen inside the holder loop, because the blob index
// lags evictions and a stale or corrupt first holder must not end the
// search while the remaining holders can still satisfy it. Peer-fetched
// blobs are cached, so the next heartbeat advertises them and later
// requests and peers are served locally.
func (s *Server) resolveBlob(key string, trail *spanTrail, verify func([]byte) error) ([]byte, error) {
	if !s.fleetEnabled() {
		return nil, errBlobUnavailable
	}
	if data, ok := s.cfg.Blobs.Get(key); ok {
		if verify == nil {
			return data, nil
		}
		if err := verify(data); err == nil {
			return data, nil
		} else {
			// A local copy failing content verification should be
			// impossible (keys are content hashes); fall through to the
			// fleet rather than serving bytes we cannot vouch for.
			s.logf("edge: local blob %s failed verification: %v", key, err)
		}
	}
	if s.cfg.Locator == nil {
		return nil, errBlobUnavailable
	}
	holders, err := s.locateBlob(key, trail)
	if err != nil {
		return nil, fmt.Errorf("%w: locate: %v", errBlobUnavailable, err)
	}
	var lastErr error
	for _, addr := range holders[key] {
		if addr == s.cfg.AdvertiseAddr {
			continue // the index may lag our own evictions
		}
		data, err := s.fetchBlobFromPeer(addr, key, trail)
		if err == nil && verify != nil {
			err = verify(data)
		}
		if err != nil {
			lastErr = err
			s.logf("edge: blob %s from peer %s: %v", key, addr, err)
			continue
		}
		s.cfg.Blobs.Put(key, data)
		s.blobPeerFetches.Inc()
		s.blobPeerFetchBytes.Add(int64(len(data)))
		return data, nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("%w: %v", errBlobUnavailable, lastErr)
	}
	return nil, errBlobUnavailable
}

// locateBlob asks the locator which peers hold key, propagating the
// request's trace through the registry hop when both sides support it.
// The hop's round trip feeds the StageRegistry histogram either way.
func (s *Server) locateBlob(key string, trail *spanTrail) (map[string][]string, error) {
	start := time.Now()
	var (
		holders map[string][]string
		span    *protocol.SpanNode
		err     error
	)
	if tl, ok := s.cfg.Locator.(tracedLocator); ok && trail.id() != "" {
		holders, span, err = tl.LocateTraced([]string{key}, trail.id())
	} else {
		holders, err = s.cfg.Locator.Locate([]string{key})
	}
	rtt := time.Since(start)
	s.rec.Observe(trace.StageRegistry, rtt)
	if err != nil {
		return nil, err
	}
	if trail != nil {
		if span == nil {
			// The locator reports no span of its own; record the hop from
			// this side so the tree still shows it.
			span = &protocol.SpanNode{Op: "registry_rpc", Micros: rtt.Microseconds()}
		}
		span.Detail = key
		trail.add(span)
	}
	return holders, nil
}

// fetchBlobFromPeer performs one MsgBlobGet round trip against another
// edge server and verifies the returned bytes against the frame checksum.
// Content identity (the bytes actually hashing to key) is verified by the
// caller where the decoded form is at hand. A traced fetch (trail != nil)
// propagates the trace ID to the peer and nests the peer's serve span
// under this hop's round-trip span.
func (s *Server) fetchBlobFromPeer(addr, key string, trail *spanTrail) ([]byte, error) {
	start := time.Now()
	body, remote, err := s.doFetchBlob(addr, key, trail.id())
	rtt := time.Since(start)
	s.rec.Observe(trace.StagePeerFetch, rtt)
	if trail != nil {
		span := &protocol.SpanNode{
			Op:     "peer_fetch",
			Addr:   addr,
			Micros: rtt.Microseconds(),
			Detail: key,
		}
		if err != nil {
			span.Detail = key + " error: " + err.Error()
		}
		if remote != nil {
			span.Children = []*protocol.SpanNode{remote}
		}
		trail.add(span)
	}
	return body, err
}

// doFetchBlob is the wire round trip of fetchBlobFromPeer.
func (s *Server) doFetchBlob(addr, key, traceID string) ([]byte, *protocol.SpanNode, error) {
	dial := s.cfg.PeerDial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	conn, err := dial(addr, peerFetchTimeout)
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(peerFetchTimeout)); err != nil {
		return nil, nil, err
	}
	req, err := protocol.Encode(protocol.MsgBlobGet, protocol.BlobGetHeader{Key: key, TraceID: traceID}, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := protocol.Write(conn, req); err != nil {
		return nil, nil, err
	}
	resp, err := protocol.Read(conn)
	if err != nil {
		return nil, nil, err
	}
	if resp.Type == protocol.MsgError {
		var eh protocol.ErrorHeader
		if err := protocol.DecodeHeader(resp, &eh); err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("peer %s: %s", addr, eh.Message)
	}
	if resp.Type != protocol.MsgBlobData {
		return nil, nil, fmt.Errorf("peer %s: unexpected reply %s", addr, resp.Type)
	}
	var hdr protocol.BlobDataHeader
	if err := protocol.DecodeHeader(resp, &hdr); err != nil {
		return nil, nil, err
	}
	if hdr.Key != key {
		return nil, hdr.Span, fmt.Errorf("peer %s: sent blob %s, want %s", addr, hdr.Key, key)
	}
	if err := protocol.VerifyBody(resp.Body, hdr.BodyCRC); err != nil {
		return nil, hdr.Span, fmt.Errorf("peer %s: %w", addr, err)
	}
	return resp.Body, hdr.Span, nil
}

// handleBlobGet serves a peer's content-addressed fetch from the local
// blob cache.
func (s *Server) handleBlobGet(msg protocol.Message) (protocol.Message, error) {
	start := time.Now()
	var hdr protocol.BlobGetHeader
	if err := protocol.DecodeHeader(msg, &hdr); err != nil {
		return protocol.Message{}, err
	}
	if !s.fleetEnabled() {
		return protocol.Message{}, errors.New("blob sharing not enabled on this edge server")
	}
	data, ok := s.cfg.Blobs.Get(hdr.Key)
	if !ok {
		return protocol.Message{}, fmt.Errorf("blob %s not held here", hdr.Key)
	}
	s.blobsServed.Inc()
	resp := protocol.BlobDataHeader{
		Key:     hdr.Key,
		BodyCRC: protocol.BodyChecksum(data),
	}
	if hdr.TraceID != "" {
		// The fetching peer propagated a trace: answer with this server's
		// serve span so the requester's tree covers this process too.
		resp.Span = &protocol.SpanNode{
			Op:     "blob_serve",
			Addr:   s.cfg.AdvertiseAddr,
			Micros: time.Since(start).Microseconds(),
			Detail: hdr.Key,
		}
	}
	return protocol.Encode(protocol.MsgBlobData, resp, data)
}

// recoverBase resolves a delta's base snapshot from the fleet blob index:
// the session's previous server published the synced state under its
// content hash. Each candidate's decoded snapshot is verified against the
// requested hash inside the fetch loop, so a stale holder does not end the
// search.
func (s *Server) recoverBase(appID, baseHash string, trail *spanTrail) (*snapshot.Snapshot, error) {
	var snap *snapshot.Snapshot
	data, err := s.resolveBlob(baseHash, trail, func(body []byte) error {
		decoded, err := snapshot.Decode(body)
		if err != nil {
			return fmt.Errorf("decode fleet base %s: %w", baseHash, err)
		}
		hash, err := decoded.Hash()
		if err != nil {
			return err
		}
		if hash != baseHash {
			return fmt.Errorf("fleet base %s decoded to %s", baseHash, hash)
		}
		snap = decoded
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.basesRecovered.Inc()
	if _, err := s.store.PutState(appID, snap, int64(len(data))); err != nil {
		return nil, err
	}
	s.logf("edge: recovered delta base %s for app %q from fleet", baseHash, appID)
	return snap, nil
}

// resolveModelBlob resolves a reference-only model pre-send: the weight
// bytes come from the local cache or a peer, and the rebuilt model must
// hash back to the advertised key (spec and weights both feed
// nn.Fingerprint, so a wrong or tampered blob cannot be installed). The
// check runs per candidate holder, so one bad or stale peer cannot end
// the search while others still hold the real bytes.
func (s *Server) resolveModelBlob(hdr protocol.ModelPreSendHeader, trail *spanTrail) ([]byte, *nn.Network, error) {
	if hdr.BlobKey == "" {
		return nil, nil, errors.New("reference pre-send without blob key")
	}
	var net *nn.Network
	body, err := s.resolveBlob(hdr.BlobKey, trail, func(body []byte) error {
		decoded, err := decodeModel(hdr, body)
		if err != nil {
			return err
		}
		if got := nn.Fingerprint(decoded); got != hdr.BlobKey {
			return fmt.Errorf("blob %s rebuilt model fingerprints to %s", hdr.BlobKey, got)
		}
		net = decoded
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return body, net, nil
}
