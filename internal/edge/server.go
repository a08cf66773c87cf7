// Package edge implements the paper's offloading server program: the
// process running on a generic edge server that accepts connections from
// client devices, stores pre-sent NN models, executes incoming snapshots on
// the server's browser runtime, and returns result snapshots (§III).
package edge

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"websnap/internal/nn"
	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/sched"
	"websnap/internal/snapshot"
	"websnap/internal/telemetry"
	"websnap/internal/trace"
	"websnap/internal/vmsynth"
	"websnap/internal/webapp"
)

// maxHandlerSteps bounds one offloaded execution burst so a buggy app
// cannot wedge a server goroutine.
const maxHandlerSteps = 1000

// Config parametrizes a Server.
type Config struct {
	// Catalog resolves snapshot code hashes to app code bundles.
	Catalog *webapp.Catalog
	// Installed indicates the offloading system is pre-installed. When
	// false, the server only accepts MsgInstallOverlay until a VM
	// overlay has been synthesized (§III.B.3).
	Installed bool
	// Synthesizer performs VM synthesis for on-demand installation. May
	// be nil when Installed is true.
	Synthesizer *vmsynth.Synthesizer
	// ModelDir, when non-empty, persists pre-sent model files to disk so
	// they survive server restarts ("the server saves the files",
	// §III.B.1).
	ModelDir string
	// MaxStoreBytes bounds the session store (pre-sent models + synced
	// delta bases) in bytes; least-recently-used entries are evicted at
	// the cap. Zero means unbounded (the pre-bounded-store behavior).
	MaxStoreBytes int64
	// MaxStreams caps the concurrent logical offload streams one
	// multiplexed connection may have in flight; further frames wait in
	// the connection's read loop (TCP backpressure is the flow control).
	// Zero selects DefaultMaxStreams.
	MaxStreams int
	// Quality, when set, overrides the quality-tier global of every
	// restored snapshot before execution, forcing offloaded inference to
	// run at this precision regardless of the client's choice — an
	// operator knob for trading result fidelity against server throughput
	// under load. Empty honors whatever tier each snapshot carries.
	Quality nn.Precision
	// MaxQueueBytes bounds the summed decoded size of snapshots waiting
	// in the admission queue; zero means slots-only admission.
	MaxQueueBytes int64
	// MaxConns caps concurrently served client connections; beyond it,
	// new connections receive an error and are closed. Zero means
	// unlimited.
	MaxConns int
	// IdleTimeout closes a connection when no request arrives for this
	// long: it bounds the wait for the FIRST byte of the next frame. Zero
	// means no timeout.
	IdleTimeout time.Duration
	// TransferTimeout bounds the gap between successive reads WITHIN a
	// frame once its first byte has arrived. A multi-MB snapshot upload on
	// a slow link stays alive as long as bytes keep trickling in at least
	// this often; a stalled peer is still cut off. Zero selects
	// IdleTimeout (so a bare IdleTimeout config keeps its old meaning per
	// chunk rather than per frame).
	TransferTimeout time.Duration
	// Workers sizes the scheduler's worker pool. Zero selects
	// DefaultWorkers.
	Workers int
	// QueueDepth bounds the scheduler's admission queue. Zero selects the
	// scheduler default.
	QueueDepth int
	// QueuePolicy selects the overload behavior: reject immediately (the
	// default — saturated servers shed load so clients fall back locally)
	// or block up to QueueWait.
	QueuePolicy sched.Policy
	// QueueWait bounds how long PolicyBlock waits for queue space.
	QueueWait time.Duration
	// MaxBatch caps how many same-model snapshot sessions one worker
	// coalesces into a single batched forward pass. Zero or one disables
	// batching.
	MaxBatch int
	// BatchWindow is how long a worker holds an under-filled batch open
	// for same-model arrivals; zero batches only the already-queued
	// backlog.
	BatchWindow time.Duration
	// Logf receives diagnostic output; nil silences it.
	Logf func(format string, args ...any)
	// Logger, when non-nil, receives structured JSON-line logs. When Logf
	// is nil the legacy printf diagnostics also route through it, so one
	// stream carries everything.
	Logger *obs.Logger
	// TraceLog, when non-nil, receives one JSON line per completed
	// offload request with the server-side span breakdown (decode, queue,
	// execute, encode) — the structured feed behind `edged -trace-log`.
	TraceLog io.Writer
	// Blobs, when non-nil, enables fleet blob sharing: pre-sent model
	// weights and synced snapshot states are published here under their
	// content hashes, advertised on registry heartbeats, and served to
	// peers via MsgBlobGet. cmd/edged wires a fleet.BlobStore.
	Blobs BlobCache
	// Locator finds fleet peers holding a blob (typically a
	// fleet.RegistryClient); nil limits resolution to the local cache.
	Locator BlobLocator
	// AdvertiseAddr is this server's own fleet-advertised address; the
	// peer-fetch path skips it when the blob index lists us as a holder.
	AdvertiseAddr string
	// PeerDial overrides the transport for peer blob fetches (tests and
	// chaos injection); nil means TCP.
	PeerDial func(addr string, timeout time.Duration) (net.Conn, error)
	// SLO, when non-nil, receives every completed offload's server-side
	// total latency; /slo (cmd/edged) serves its burn state and /readyz
	// surfaces it. The server only feeds observations — construction
	// (objective, windows, OnBurn) is the embedder's.
	SLO *telemetry.SLO
	// Flight, when non-nil, captures the span trees of slow, failed, and
	// shed requests in a bounded in-memory ring served at /debug/flight.
	// "Slow" means the server-side total exceeded the SLO objective (no
	// SLO, no slow capture; errors and sheds are captured regardless).
	Flight *telemetry.FlightRecorder
}

// DefaultWorkers is the worker-pool size when Config.Workers is zero.
const DefaultWorkers = 4

// DefaultMaxStreams is the per-connection concurrent-stream cap when
// Config.MaxStreams is zero.
const DefaultMaxStreams = 256

// Server is the edge server's offloading program.
type Server struct {
	cfg   Config
	store *SessionStore
	sched *sched.Scheduler
	logf  func(string, ...any)
	quit  chan struct{}
	wg    sync.WaitGroup
	// reqWG tracks requests between dispatch and response write, so Close
	// can let in-flight sessions flush their final frames before
	// terminating connections.
	reqWG  sync.WaitGroup
	mu     sync.Mutex
	ln     net.Listener
	closed bool

	// soloSeq generates unique batch keys for sessions that must not be
	// coalesced.
	soloSeq atomic.Uint64

	installedMu sync.RWMutex
	installed   bool

	// connSlots is a semaphore bounding concurrent connections; nil when
	// unlimited.
	connSlots chan struct{}

	// connsMu guards conns, the set of live client connections, so Close
	// can terminate them instead of waiting forever on idle readers.
	connsMu sync.Mutex
	conns   map[net.Conn]struct{}

	// rec aggregates server-side stage latencies (queue, execute) across
	// every offload request, for /metrics export.
	rec *trace.Recorder
	// traceLogMu serializes JSON lines onto Config.TraceLog.
	traceLogMu sync.Mutex

	// log is the structured logger (nil-safe); logf remains the printf
	// bridge for legacy call sites.
	log *obs.Logger

	// reg is the server's metrics registry; every counter, gauge, and
	// stage histogram below exposes through it.
	reg *obs.Registry
	// Operation counters, registered on reg (registration order defines
	// exposition order and is part of the scrape contract).
	connsServed, connsRefused         *obs.Counter
	modelsStored                      *obs.Counter
	snapshotsExecuted, deltasExecuted *obs.Counter
	installs, errorsAnswered          *obs.Counter
	// Fleet blob-sharing counters (zero outside a fleet).
	refPreSendHits, refPreSendMisses    *obs.Counter
	blobPeerFetches, blobPeerFetchBytes *obs.Counter
	blobsServed, basesRecovered         *obs.Counter
	// Multiplexing counters: requests dispatched as streams (every request
	// is one), and the live concurrent-stream gauge behind them.
	muxRequests *obs.Counter
	muxActive   atomic.Int64

	// Chain relay counters: layer ranges executed as chain hops, boundary
	// tensors relayed downstream, and relays that failed.
	chainExecs, chainRelays, chainRelayFailures *obs.Counter

	// start anchors the uptime reported in telemetry digests.
	start time.Time
}

// Metrics is a snapshot of the server's operation counters.
type Metrics struct {
	// ConnsServed counts accepted (served) connections.
	ConnsServed int64
	// ConnsRefused counts connections turned away at the MaxConns cap.
	ConnsRefused int64
	// ModelsStored counts pre-send requests handled.
	ModelsStored int64
	// SnapshotsExecuted counts full snapshot offloads executed.
	SnapshotsExecuted int64
	// DeltasExecuted counts delta offloads executed.
	DeltasExecuted int64
	// Installs counts completed VM-synthesis installations.
	Installs int64
	// Errors counts requests answered with MsgError.
	Errors int64
	// MuxRequests counts requests dispatched as logical streams; every
	// connection is multiplexed, so this is every request read.
	MuxRequests int64
	// StoreBytes and StoreEvictions mirror the bounded session store: its
	// current byte charge and how many entries the byte cap has evicted.
	StoreBytes     int64
	StoreEvictions int64
}

// Metrics returns a consistent-enough snapshot of the server's counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		ConnsServed:       s.connsServed.Value(),
		ConnsRefused:      s.connsRefused.Value(),
		ModelsStored:      s.modelsStored.Value(),
		SnapshotsExecuted: s.snapshotsExecuted.Value(),
		DeltasExecuted:    s.deltasExecuted.Value(),
		Installs:          s.installs.Value(),
		Errors:            s.errorsAnswered.Value(),
		MuxRequests:       s.muxRequests.Value(),
		StoreBytes:        s.store.Bytes(),
		StoreEvictions:    s.store.Evictions(),
	}
}

// Registry exposes the server's metrics registry, so embedders can add
// their own families to the same scrape.
func (s *Server) Registry() *obs.Registry { return s.reg }

// initMetrics builds the server's metric families. Registration order is
// the exposition order of the pre-registry handler and must not change:
// existing scrapes depend on it byte-for-byte.
func (s *Server) initMetrics() {
	r := obs.NewRegistry()
	s.reg = r
	s.connsServed = r.Counter("websnap_conns_served_total", "Accepted client connections.")
	s.connsRefused = r.Counter("websnap_conns_refused_total", "Connections refused at the MaxConns cap.")
	s.modelsStored = r.Counter("websnap_models_stored_total", "Model pre-send requests handled.")
	s.snapshotsExecuted = r.Counter("websnap_snapshots_executed_total", "Full snapshot offloads executed.")
	s.deltasExecuted = r.Counter("websnap_deltas_executed_total", "Delta offloads executed.")
	s.installs = r.Counter("websnap_installs_total", "Completed VM-synthesis installations.")
	s.errorsAnswered = r.Counter("websnap_errors_total", "Requests answered with an error frame.")
	r.CounterFunc("websnap_sched_submitted_total", "Tasks admitted to the scheduler queue.",
		func() int64 { return s.sched.Stats().Submitted })
	r.CounterFunc("websnap_sched_rejected_total", "Tasks rejected at admission.",
		func() int64 { return s.sched.Stats().Rejected })
	r.CounterFunc("websnap_sched_executed_total", "Tasks completed.",
		func() int64 { return s.sched.Stats().Executed })
	r.CounterFunc("websnap_sched_batches_total", "Executed batches.",
		func() int64 { return s.sched.Stats().Batches })
	r.GaugeFunc("websnap_installed", "Whether the offloading system is installed (1) or not (0).",
		func() float64 {
			if s.Installed() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("websnap_queue_depth", "Tasks currently waiting in the admission queue.",
		func() float64 { return float64(s.sched.Stats().QueueDepth) })
	r.GaugeFunc("websnap_queue_capacity", "Admission queue capacity.",
		func() float64 { return float64(s.sched.Stats().QueueCap) })
	r.GaugeFunc("websnap_workers", "Worker pool size.",
		func() float64 { return float64(s.sched.Stats().Workers) })
	r.GaugeFunc("websnap_busy_workers", "Workers currently executing a batch.",
		func() float64 { return float64(s.sched.Stats().Busy) })
	r.GaugeFunc("websnap_queueing_delay_seconds", "Estimated queueing delay for a request submitted now.",
		func() float64 { return s.sched.Stats().QueueingDelay().Seconds() })
	stages := r.HistogramVec("websnap_stage_seconds", "Offload pipeline stage latency in seconds.", "stage")
	for _, stage := range trace.AllStages() {
		stages.Attach(s.rec.Stage(stage), string(stage))
	}
	// Fleet families register after everything above: the pre-fleet
	// exposition prefix stays byte-identical for existing scrapes.
	s.refPreSendHits = r.Counter("websnap_ref_presend_hits_total",
		"Reference-only model pre-sends resolved without the client's bytes.")
	s.refPreSendMisses = r.Counter("websnap_ref_presend_misses_total",
		"Reference-only model pre-sends answered NeedBlob (client re-sent in full).")
	s.blobPeerFetches = r.Counter("websnap_blob_peer_fetches_total",
		"Blobs fetched from fleet peers.")
	s.blobPeerFetchBytes = r.Counter("websnap_blob_peer_fetch_bytes_total",
		"Bytes fetched from fleet peers.")
	s.blobsServed = r.Counter("websnap_blobs_served_total",
		"Blob fetches served to fleet peers.")
	s.basesRecovered = r.Counter("websnap_bases_recovered_total",
		"Delta bases recovered from the fleet blob index.")
	// Session-store and multiplexing families register after the fleet
	// block for the same reason: the earlier exposition prefix stays
	// byte-identical for existing scrapes.
	r.GaugeFunc("websnap_store_bytes", "Session store payload bytes (models + synced delta bases).",
		func() float64 { return float64(s.store.Bytes()) })
	r.GaugeFunc("websnap_store_byte_cap", "Session store byte cap (0 = unbounded).",
		func() float64 { return float64(s.store.MaxBytes()) })
	r.GaugeFunc("websnap_store_entries", "Distinct content-addressed payloads in the session store.",
		func() float64 { return float64(s.store.Entries()) })
	r.CounterFunc("websnap_store_evictions_total", "Session-store entries evicted at the byte cap.",
		func() int64 { return s.store.Evictions() })
	r.CounterFunc("websnap_store_compactions_total", "Superseded delta bases released by chain compaction.",
		func() int64 { return s.store.Compactions() })
	r.GaugeFunc("websnap_queue_bytes", "Decoded snapshot bytes waiting in the admission queue.",
		func() float64 { return float64(s.sched.Stats().QueueBytes) })
	s.muxRequests = r.Counter("websnap_mux_requests_total",
		"Requests dispatched concurrently off multiplexed connections.")
	r.GaugeFunc("websnap_mux_streams", "Logical offload streams currently in flight across multiplexed connections.",
		func() float64 { return float64(s.muxActive.Load()) })
	// Chain families register last, after the mux block, keeping every
	// earlier exposition prefix byte-identical for existing scrapes.
	s.chainExecs = r.Counter("websnap_chain_execs_total",
		"Layer ranges executed as multi-hop chain hops.")
	s.chainRelays = r.Counter("websnap_chain_relays_total",
		"Boundary tensors relayed to downstream chain hops.")
	s.chainRelayFailures = r.Counter("websnap_chain_relay_failures_total",
		"Chain relays that failed (downstream unreachable or errored).")
}

// NewServer creates an offloading server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Catalog == nil {
		return nil, errors.New("edge: nil catalog")
	}
	if !cfg.Installed && cfg.Synthesizer == nil {
		return nil, errors.New("edge: not installed and no synthesizer for on-demand installation")
	}
	logf := cfg.Logf
	if logf == nil {
		if cfg.Logger != nil {
			logf = cfg.Logger.Logf
		} else {
			logf = func(string, ...any) {}
		}
	}
	store := newSessionStore(cfg.MaxStoreBytes)
	if cfg.ModelDir != "" {
		var err error
		store, err = newSessionStoreDir(cfg.ModelDir, cfg.MaxStoreBytes)
		if err != nil {
			return nil, err
		}
	}
	srv := &Server{
		cfg:       cfg,
		store:     store,
		logf:      logf,
		log:       cfg.Logger,
		quit:      make(chan struct{}),
		installed: cfg.Installed,
		conns:     make(map[net.Conn]struct{}),
		rec:       trace.NewRecorder(),
		start:     time.Now(),
	}
	if cfg.MaxConns > 0 {
		srv.connSlots = make(chan struct{}, cfg.MaxConns)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	var err error
	srv.sched, err = sched.New(sched.Config{
		Workers:       workers,
		QueueDepth:    cfg.QueueDepth,
		MaxQueueBytes: cfg.MaxQueueBytes,
		Policy:        cfg.QueuePolicy,
		QueueWait:     cfg.QueueWait,
		MaxBatch:      cfg.MaxBatch,
		BatchWindow:   cfg.BatchWindow,
		Logf:          logf,
	}, srv.execBatch)
	if err != nil {
		return nil, err
	}
	// A session-store eviction must also leave the fleet blob cache, or
	// the next heartbeat would advertise a key we can no longer back.
	store.onEvict = srv.onStoreEvict
	srv.initMetrics()
	return srv, nil
}

// onStoreEvict propagates a session-store eviction to the fleet blob
// cache so evicted keys drop out of the next heartbeat's advertised set.
func (s *Server) onStoreEvict(key string) {
	if d, ok := s.cfg.Blobs.(interface{ Delete(key string) }); ok {
		d.Delete(key)
	}
}

// SchedStats returns the scheduler's current state and counters.
func (s *Server) SchedStats() sched.Stats { return s.sched.Stats() }

// loadHint summarizes the scheduler's state for response headers.
func (s *Server) loadHint() *protocol.LoadHint {
	st := s.sched.Stats()
	return &protocol.LoadHint{
		QueueDepth:        st.QueueDepth,
		QueueCap:          st.QueueCap,
		Workers:           st.Workers,
		Busy:              st.Busy,
		EWMAServiceMillis: float64(st.Service.Mean) / float64(time.Millisecond),
		QueueingMillis:    float64(st.QueueingDelay()) / float64(time.Millisecond),
		Saturated:         st.Saturated(),
	}
}

// Store exposes the server's model store (for tests and inspection).
func (s *Server) Store() *ModelStore { return s.store }

// Installed reports whether the offloading system is ready to serve
// snapshots.
func (s *Server) Installed() bool {
	s.installedMu.RLock()
	defer s.installedMu.RUnlock()
	return s.installed
}

// Ready reports whether the server can execute an offload submitted now:
// the offloading system is installed and the scheduler is accepting work.
// It is the /readyz signal — a live process that is not Ready should be
// taken out of rotation, not restarted.
func (s *Server) Ready() bool {
	return s.Installed() && s.sched.Accepting()
}

// Serve accepts connections on ln until Close is called. It blocks; run it
// in a goroutine and call Close to stop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("edge: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return fmt.Errorf("edge: accept: %w", err)
			}
		}
		if s.connSlots != nil {
			select {
			case s.connSlots <- struct{}{}:
			default:
				// At capacity: refuse politely and move on.
				s.connsRefused.Inc()
				s.wg.Add(1)
				go func() {
					defer s.wg.Done()
					if err := protocol.Refuse(conn, "edge server at connection capacity"); err != nil {
						s.logf("edge: refuse conn: %v", err)
					}
				}()
				continue
			}
		}
		s.trackConn(conn, true)
		s.connsServed.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.trackConn(conn, false)
			defer conn.Close()
			if s.connSlots != nil {
				defer func() { <-s.connSlots }()
			}
			s.handleConn(conn)
		}()
	}
}

// Close stops accepting and shuts down gracefully: the scheduler drains —
// in-flight sessions finish, queued ones are cancelled and answered with an
// Error frame — then connections are terminated and all goroutines joined.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	// Drain the scheduler: running batches complete, queued tasks fail
	// with ErrClosed. Their waiting connection handlers then write the
	// final result or Error frame, which reqWG tracks. closed is set, so
	// beginRequest adds no request to reqWG from here on.
	s.sched.Close()
	s.reqWG.Wait()
	// Terminate live connections: without this, Close would wait forever
	// on clients idling in between requests.
	s.connsMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connsMu.Unlock()
	s.wg.Wait()
	return err
}

// trackConn adds or removes a live connection from the close set.
func (s *Server) trackConn(conn net.Conn, add bool) {
	s.connsMu.Lock()
	defer s.connsMu.Unlock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

// deadlineReader reads from a net.Conn under two timeout regimes: waiting
// for a frame's first byte is bounded by idle, while each subsequent read —
// once the frame has started arriving — is bounded by transfer. Setting the
// deadline per read (not once per frame) is what keeps a legitimate multi-MB
// upload on a slow link alive: the old single up-front deadline killed any
// transfer whose total time exceeded the idle timeout, no matter how
// steadily bytes were flowing.
//
// A connection with a request in flight is not idle: while it is busy an
// expired idle deadline is re-armed instead of ending the read.
type deadlineReader struct {
	conn           net.Conn
	idle, transfer time.Duration
	// inFrame marks that the current frame's first byte has been read, so
	// reads are on the transfer clock until frameDone resets it.
	inFrame bool
	// streams counts the connection's requests in flight; lastDone is when
	// the latest one finished (unix nanoseconds).
	streams, lastDone atomic.Int64
}

func (r *deadlineReader) Read(p []byte) (int, error) {
	for {
		d := r.idle
		if r.inFrame {
			d = r.transfer
		}
		if d > 0 {
			if err := r.conn.SetReadDeadline(time.Now().Add(d)); err != nil {
				return 0, err
			}
		}
		n, err := r.conn.Read(p)
		if n > 0 {
			r.inFrame = true
		}
		if n > 0 || r.inFrame || !errors.Is(err, os.ErrDeadlineExceeded) || !r.busy() {
			return n, err
		}
	}
}

// busy reports whether a request is in flight on the connection or
// finished less than the idle timeout ago.
func (r *deadlineReader) busy() bool {
	return r.streams.Load() > 0 || time.Since(time.Unix(0, r.lastDone.Load())) < r.idle
}

// streamDone marks one in-flight request finished.
func (r *deadlineReader) streamDone() {
	r.lastDone.Store(time.Now().UnixNano())
	r.streams.Add(-1)
}

// frameDone returns the reader to the idle clock for the next frame.
func (r *deadlineReader) frameDone() { r.inFrame = false }

// connWriter serializes response frames onto one connection: many stream
// goroutines finish in arbitrary order and interleave whole frames under
// the mutex.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
}

func (w *connWriter) write(msg protocol.Message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return protocol.Write(w.conn, msg)
}

// maxStreams resolves the per-connection concurrent-stream cap.
func (s *Server) maxStreams() int {
	if s.cfg.MaxStreams > 0 {
		return s.cfg.MaxStreams
	}
	return DefaultMaxStreams
}

// handleConn serves one client connection: a sequence of framed requests,
// each answered with exactly one response that echoes the request's Seq.
// Every request runs as its own stream, concurrently with the others on the
// connection, so the response order follows completion, not arrival; a
// client with one request in flight sees strictly serial behaviour. The
// first frame is also the version handshake: a frame of another protocol
// version (or not a frame at all) is answered with one MsgError and a
// lingering close.
func (s *Server) handleConn(conn net.Conn) {
	transfer := s.cfg.TransferTimeout
	if transfer <= 0 {
		transfer = s.cfg.IdleTimeout
	}
	dr := &deadlineReader{conn: conn, idle: s.cfg.IdleTimeout, transfer: transfer}
	cw := &connWriter{conn: conn}
	var streams sync.WaitGroup
	// slots caps this connection's in-flight streams; a full window blocks
	// the read loop, so flow control is the transport's backpressure.
	slots := make(chan struct{}, s.maxStreams())
	defer streams.Wait()
	for {
		dr.frameDone()
		msg, err := protocol.Read(dr)
		if err != nil {
			if errors.Is(err, protocol.ErrBadVersion) || errors.Is(err, protocol.ErrBadMagic) {
				s.logf("edge: refusing peer: %v", err)
				s.errorsAnswered.Inc()
				streams.Wait()
				if err := protocol.Refuse(conn, err.Error()); err != nil {
					s.logf("edge: refuse peer: %v", err)
				}
				return
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) {
				s.logf("edge: read: %v", err)
			}
			return
		}
		var env protocol.MuxEnvelope
		// An undecodable header still dispatches; the handler reports the
		// decode error on the request's response.
		_ = json.Unmarshal(msg.Header, &env)
		// The stream-semaphore wait is where backpressure bites; time it so
		// the per-stream span and the stream_wait stage histogram expose a
		// saturated window.
		waitStart := time.Now()
		slots <- struct{}{}
		streamWait := time.Since(waitStart)
		if !s.beginRequest() {
			// Close has begun: answer with the typed drain error.
			s.errorsAnswered.Inc()
			if resp, err := protocol.Encode(protocol.MsgError,
				protocol.ErrorHeader{Message: sched.ErrClosed.Error(), Seq: env.Seq}, nil); err == nil {
				_ = cw.write(resp)
			}
			return
		}
		s.muxRequests.Inc()
		s.muxActive.Add(1)
		dr.streams.Add(1)
		streams.Add(1)
		go func() {
			defer streams.Done()
			defer s.reqWG.Done()
			defer s.muxActive.Add(-1)
			defer dr.streamDone()
			defer func() { <-slots }()
			if err := s.serveRequest(cw, msg, env.Seq, streamWait); err != nil {
				// The shared socket is broken; close it so the read loop
				// and sibling streams unwind.
				conn.Close()
			}
		}()
	}
}

// beginRequest counts one request in reqWG, unless Close has begun: Close
// waits on reqWG, and a WaitGroup must not grow from zero while it is
// waited on.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.reqWG.Add(1)
	return true
}

// serveRequest dispatches one request and writes its response, echoing seq.
// streamWait is the stream-semaphore wait the request spent before
// dispatch.
func (s *Server) serveRequest(cw *connWriter, msg protocol.Message, seq uint64, streamWait time.Duration) error {
	resp, err := s.dispatch(msg, streamWait)
	if err != nil {
		s.logf("edge: %s: %v", msg.Type, err)
		s.errorsAnswered.Inc()
		hdr := protocol.ErrorHeader{Message: err.Error(), Seq: seq}
		var oe *overloadError
		if errors.As(err, &oe) {
			hdr.Message = oe.err.Error()
			hdr.Overloaded = oe.overloaded
			hdr.Load = s.loadHint()
		}
		// A chain failure additionally locates the failed hop so the
		// client's re-planner can exclude it from the next manifest.
		var ce *chainError
		if errors.As(err, &ce) {
			hdr.ChainHop = ce.hop
		}
		s.recordFailure(msg, err, oe)
		resp, err = protocol.Encode(protocol.MsgError, hdr, nil)
		if err != nil {
			return err
		}
	}
	if err := cw.write(resp); err != nil {
		s.logf("edge: write response: %v", err)
		return err
	}
	return nil
}

// overloadError decorates a scheduler admission failure with the overload
// marker that tells the client to execute locally.
type overloadError struct {
	err        error
	overloaded bool
}

func (e *overloadError) Error() string { return e.err.Error() }
func (e *overloadError) Unwrap() error { return e.err }

// recordFailure deposits a failed request in the flight recorder: shed
// requests under the shed reason (the decision mix's load-drop path),
// everything else as an error. The trace ID, when the request carried one,
// joins the entry so operators can line it up with client-side traces.
func (s *Server) recordFailure(msg protocol.Message, err error, oe *overloadError) {
	if s.cfg.Flight == nil {
		return
	}
	reason := telemetry.FlightError
	if oe != nil && oe.overloaded {
		reason = telemetry.FlightShed
	}
	var tid struct {
		TraceID string `json:"traceId"`
	}
	_ = json.Unmarshal(msg.Header, &tid)
	s.cfg.Flight.Record(telemetry.FlightEntry{
		TraceID: tid.TraceID,
		Reason:  reason,
		Note:    string(msg.Type) + ": " + err.Error(),
	})
}

// dispatch routes one request to its handler. streamWait reaches the
// snapshot and chain handlers so the stream-semaphore wait lands in the
// request's server trace.
func (s *Server) dispatch(msg protocol.Message, streamWait time.Duration) (protocol.Message, error) {
	// Pings work before installation: probes need to learn the install
	// state without tripping an error.
	if msg.Type == protocol.MsgPing {
		return s.handlePing(msg)
	}
	if !s.Installed() && msg.Type != protocol.MsgInstallOverlay {
		return protocol.Message{}, errors.New("offloading system not installed on this edge server")
	}
	switch msg.Type {
	case protocol.MsgModelPreSend:
		return s.handleModelPreSend(msg)
	case protocol.MsgSnapshot:
		return s.handleSnapshot(msg, streamWait)
	case protocol.MsgSnapshotDelta:
		return s.handleSnapshotDelta(msg, streamWait)
	case protocol.MsgInstallOverlay:
		return s.handleInstall(msg)
	case protocol.MsgBlobGet:
		return s.handleBlobGet(msg)
	case protocol.MsgChainExec:
		return s.handleChainExec(msg, streamWait)
	default:
		return protocol.Message{}, fmt.Errorf("unexpected message %s", msg.Type)
	}
}

// handlePing answers a load probe with the server's install state, its
// scheduling load and its fleet membership.
func (s *Server) handlePing(msg protocol.Message) (protocol.Message, error) {
	var hdr protocol.PingHeader
	if err := protocol.DecodeHeader(msg, &hdr); err != nil {
		return protocol.Message{}, err
	}
	return protocol.Encode(protocol.MsgPong, protocol.PongHeader{
		Installed: s.Installed(),
		Load:      s.loadHint(),
		Fleet:     s.fleetEnabled(),
		Seq:       hdr.Seq,
	}, nil)
}

// decodeModel rebuilds a network from a pre-send header's spec and a
// weight blob.
func decodeModel(hdr protocol.ModelPreSendHeader, weights []byte) (*nn.Network, error) {
	net, err := nn.DecodeSpec(hdr.Spec)
	if err != nil {
		return nil, fmt.Errorf("model %q: %w", hdr.ModelName, err)
	}
	if err := net.DecodeWeights(bytes.NewReader(weights)); err != nil {
		return nil, fmt.Errorf("model %q weights: %w", hdr.ModelName, err)
	}
	return net, nil
}

// handleModelPreSend stores the client's model files and acknowledges, per
// §III.B.1: "The server saves the files and sends an acknowledgement (ACK)
// message to the client." A fleet client may send a reference instead of
// the bytes (RefOnly + BlobKey): the server then resolves the blob from
// its cache or a peer, and answers NeedBlob when it cannot, telling the
// client to retry with the full upload.
func (s *Server) handleModelPreSend(msg protocol.Message) (protocol.Message, error) {
	start := time.Now()
	var hdr protocol.ModelPreSendHeader
	if err := protocol.DecodeHeader(msg, &hdr); err != nil {
		return protocol.Message{}, err
	}
	// A traced client propagated its trace through the pre-send hop:
	// collect the fleet-hop spans (registry locate, peer fetches) and
	// parent them under one resolve span answered on the ack.
	var trail *spanTrail
	if hdr.TraceID != "" {
		trail = &spanTrail{traceID: hdr.TraceID}
	}
	resolveSpan := func() *protocol.SpanNode {
		if trail == nil {
			return nil
		}
		return &protocol.SpanNode{
			Op:       "presend_resolve",
			Addr:     s.cfg.AdvertiseAddr,
			Micros:   time.Since(start).Microseconds(),
			Detail:   hdr.BlobKey,
			Children: trail.spans,
		}
	}
	var (
		weights []byte
		net     *nn.Network
		err     error
	)
	if hdr.RefOnly {
		weights, net, err = s.resolveModelBlob(hdr, trail)
		if err != nil {
			s.refPreSendMisses.Inc()
			s.logf("edge: ref pre-send %q (blob %s) unresolved: %v", hdr.ModelName, hdr.BlobKey, err)
			return protocol.Encode(protocol.MsgAck, protocol.AckHeader{
				AppID:     hdr.AppID,
				ModelName: hdr.ModelName,
				Seq:       hdr.Seq,
				Load:      s.loadHint(),
				NeedBlob:  true,
				Span:      resolveSpan(),
			}, nil)
		}
		s.refPreSendHits.Inc()
	} else {
		if err := protocol.VerifyBody(msg.Body, hdr.BodyCRC); err != nil {
			return protocol.Message{}, fmt.Errorf("model %q weights: %w", hdr.ModelName, err)
		}
		weights = msg.Body
		net, err = decodeModel(hdr, weights)
		if err != nil {
			return protocol.Message{}, err
		}
	}
	if err := s.store.Put(hdr.AppID, hdr.ModelName, net); err != nil {
		// The in-memory copy is in place; persistence failure only
		// affects restarts. Log and keep serving.
		s.logf("edge: persist model %q: %v", hdr.ModelName, err)
	}
	if s.fleetEnabled() {
		key := hdr.BlobKey
		if key == "" {
			key = nn.Fingerprint(net)
		}
		s.cfg.Blobs.Put(key, weights)
	}
	s.modelsStored.Inc()
	s.logf("edge: stored model %q for app %q (%d params, partial=%v, ref=%v)",
		hdr.ModelName, hdr.AppID, net.TotalParams(), hdr.Partial, hdr.RefOnly)
	return protocol.Encode(protocol.MsgAck, protocol.AckHeader{
		AppID:     hdr.AppID,
		ModelName: hdr.ModelName,
		Seq:       hdr.Seq,
		Load:      s.loadHint(),
		Span:      resolveSpan(),
	}, nil)
}

// restoreApp re-creates a running app from an offloaded snapshot. Models
// absent from the snapshot are attached from the pre-send store so
// delta-reconstructed snapshots (which never list models) execute too.
func (s *Server) restoreApp(snap *snapshot.Snapshot) (*webapp.App, *webapp.Registry, error) {
	registry, ok := s.cfg.Catalog.Lookup(snap.CodeHash)
	if !ok {
		return nil, nil, fmt.Errorf("unknown app code %q", snap.CodeHash)
	}
	app, err := snapshot.Restore(snap, registry, snapshot.RestoreOptions{
		Models: s.store.Resolver(snap.AppID),
	})
	if err != nil {
		return nil, nil, err
	}
	for _, name := range s.store.Names(snap.AppID) {
		if _, loaded := app.Model(name); !loaded {
			if net, ok := s.store.Get(snap.AppID, name); ok {
				app.LoadModel(name, net)
			}
		}
	}
	if s.cfg.Quality != "" {
		if err := webapp.SetQuality(app, s.cfg.Quality); err != nil {
			return nil, nil, err
		}
	}
	return app, registry, nil
}

// execResult is one executed session: the captured result state and its
// encoding. The result carries no models (ModelOmit), so the encoding is
// both the full-offload result body and the state blob.
type execResult struct {
	snap *snapshot.Snapshot
	wire []byte
}

// captureResult captures the post-execution state and records it as the
// app's synchronized server-side state for delta offloads. The result is
// encoded once: the same bytes are the store's byte-cap charge, the fleet
// blob published under the state's content hash, and the full-offload
// response body.
func (s *Server) captureResult(app *webapp.App, appID string) (*execResult, error) {
	result, err := snapshot.Capture(app, snapshot.Options{DefaultModelPolicy: snapshot.ModelOmit})
	if err != nil {
		return nil, err
	}
	data, err := result.Encode()
	if err != nil {
		return nil, err
	}
	key, err := s.store.PutState(appID, result, int64(len(data)))
	if err != nil {
		s.logf("edge: store state for app %q: %v", appID, err)
	} else if s.fleetEnabled() {
		s.cfg.Blobs.Put(key, data)
	}
	return &execResult{snap: result, wire: data}, nil
}

// executeSnapshot runs one offloaded snapshot on the server's runtime and
// returns the captured result state (§III.A).
func (s *Server) executeSnapshot(snap *snapshot.Snapshot) (*execResult, error) {
	app, _, err := s.restoreApp(snap)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	steps, err := app.Run(maxHandlerSteps)
	if err != nil {
		return nil, fmt.Errorf("execute snapshot: %w", err)
	}
	s.logf("edge: app %q ran %d handler(s) in %v", snap.AppID, steps, time.Since(start))
	return s.captureResult(app, snap.AppID)
}

// execBatch is the scheduler's executor: one batch of snapshot sessions.
// Multi-task batches (same batch key: same code, same event, byte-identical
// models) run through the app's registered batched handler; anything
// unexpected falls back to per-session execution, which is always correct.
func (s *Server) execBatch(batch []*sched.Task) []sched.Result {
	if len(batch) > 1 {
		if results, ok := s.executeBatched(batch); ok {
			return results
		}
	}
	results := make([]sched.Result, len(batch))
	for i, t := range batch {
		switch p := t.Payload.(type) {
		case *chainWork:
			// A chain hop's layer range; solo-keyed, so never coalesced.
			out, err := p.net.ForwardRange(p.in, p.from, p.to)
			results[i] = sched.Result{Value: out, Err: err}
		default:
			r, err := s.executeSnapshot(t.Payload.(*snapshot.Snapshot))
			results[i] = sched.Result{Value: r, Err: err}
		}
	}
	return results
}

// executeBatched coalesces the batch into one batched handler invocation:
// restore every session, pop the shared pending event from each, run the
// batched handler once, then drain any follow-on events and capture each
// result. ok=false means the batch could not be run coalesced and no app
// state was published; the caller re-executes per session.
func (s *Server) executeBatched(batch []*sched.Task) ([]sched.Result, bool) {
	apps := make([]*webapp.App, len(batch))
	evs := make([]webapp.Event, len(batch))
	var fn webapp.BatchHandlerFunc
	for i, t := range batch {
		snap := t.Payload.(*snapshot.Snapshot)
		app, registry, err := s.restoreApp(snap)
		if err != nil {
			return nil, false
		}
		ev, handler, ok := soleBatchableEvent(app)
		if !ok {
			return nil, false
		}
		bfn, ok := registry.BatchHandler(handler)
		if !ok {
			return nil, false
		}
		if i == 0 {
			fn = bfn
		}
		app.PopEvent()
		apps[i], evs[i] = app, ev
	}
	start := time.Now()
	if err := fn(apps, evs); err != nil {
		s.logf("edge: batched handler failed, re-executing solo: %v", err)
		return nil, false
	}
	s.logf("edge: batched %d session(s) in %v", len(batch), time.Since(start))
	results := make([]sched.Result, len(batch))
	for i, t := range batch {
		snap := t.Payload.(*snapshot.Snapshot)
		if _, err := apps[i].Run(maxHandlerSteps); err != nil {
			results[i] = sched.Result{Err: fmt.Errorf("execute snapshot: %w", err)}
			continue
		}
		r, err := s.captureResult(apps[i], snap.AppID)
		results[i] = sched.Result{Value: r, Err: err}
	}
	return results, true
}

// soleBatchableEvent reports the app's single pending payload-free event and
// the one handler bound to it, the shape a batched execution requires.
func soleBatchableEvent(app *webapp.App) (webapp.Event, string, bool) {
	pending := app.PendingEvents()
	if len(pending) != 1 || pending[0].Payload != nil {
		return webapp.Event{}, "", false
	}
	ev := pending[0]
	handler, matches := "", 0
	for _, b := range app.Bindings() {
		if b.Target == ev.Target && b.Event == ev.Type {
			handler, matches = b.Handler, matches+1
		}
	}
	if matches != 1 {
		return webapp.Event{}, "", false
	}
	return ev, handler, true
}

// soloKey returns a unique batch key, for sessions that must not coalesce.
func (s *Server) soloKey() string {
	return "solo:" + strconv.FormatUint(s.soloSeq.Add(1), 10)
}

// batchKey derives the coalescing key for a snapshot session. Sessions get
// the same key — and may be batched into one forward pass — only when they
// run the same handler of the same code bundle on byte-identical model
// files: the key hashes the code hash, the pending event and its resolved
// handler, the fingerprints of the app's pre-sent models, any models
// shipped inline in the snapshot, and the app's string-valued globals
// (which select the model the handler uses).
func (s *Server) batchKey(snap *snapshot.Snapshot) string {
	ev, handler, ok := batchableSnapshotEvent(snap)
	if !ok {
		return s.soloKey()
	}
	registry, ok := s.cfg.Catalog.Lookup(snap.CodeHash)
	if !ok {
		return s.soloKey()
	}
	if _, ok := registry.BatchHandler(handler); !ok {
		return s.soloKey()
	}
	h := sha256.New()
	for _, part := range []string{snap.CodeHash, ev.Target, ev.Type, handler, s.store.FingerprintSet(snap.AppID)} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	for _, m := range snap.Models {
		h.Write([]byte(m.Name))
		if spec, err := json.Marshal(m.Spec); err == nil {
			h.Write(spec)
		}
		h.Write(m.Weights)
		h.Write([]byte{0})
	}
	var strs []string
	for name, v := range snap.Globals {
		if sv, ok := v.(string); ok {
			strs = append(strs, name+"="+sv)
		}
	}
	sort.Strings(strs)
	for _, kv := range strs {
		h.Write([]byte(kv))
		h.Write([]byte{0})
	}
	return "b:" + hex.EncodeToString(h.Sum(nil)[:12])
}

// batchableSnapshotEvent is soleBatchableEvent evaluated directly on the
// snapshot, before any restore happens.
func batchableSnapshotEvent(snap *snapshot.Snapshot) (webapp.Event, string, bool) {
	if len(snap.Pending) != 1 || snap.Pending[0].Payload != nil {
		return webapp.Event{}, "", false
	}
	ev := snap.Pending[0]
	handler, matches := "", 0
	for _, b := range snap.Bindings {
		if b.Target == ev.Target && b.Event == ev.Type {
			handler, matches = b.Handler, matches+1
		}
	}
	if matches != 1 {
		return webapp.Event{}, "", false
	}
	return ev, handler, true
}

// svcTiming accumulates one request's server-side stage durations as it
// moves through decode, the admission queue, execution, and result encode.
type svcTiming struct {
	decode time.Duration
	queue  time.Duration
	exec   time.Duration
	batch  int
	// encodeStart is stamped by the handler just before it encodes the
	// result delta (a full result arrives encoded); snapshotResponse
	// closes the span after any compression.
	encodeStart time.Time
	// streamWait is the stream-semaphore wait before dispatch.
	streamWait time.Duration
	// spans carries the request's fleet-hop span trail (registry locates,
	// peer fetches during delta base recovery) into the flight recorder.
	spans []*protocol.SpanNode
}

// scheduleSnapshot submits one decoded snapshot session to the scheduler
// and waits for its result. Admission failures are wrapped as overload
// errors so the connection handler can answer with the overload marker and
// load hint that redirect the client to local execution. On success tm (when
// non-nil) receives the task's queue wait, execution time, and batch size.
func (s *Server) scheduleSnapshot(snap *snapshot.Snapshot, tm *svcTiming, size int64) (*execResult, error) {
	task := sched.NewTask(s.batchKey(snap), snap)
	task.Bytes = size
	if err := s.sched.Submit(task); err != nil {
		return nil, &overloadError{err: err, overloaded: errors.Is(err, sched.ErrQueueFull)}
	}
	v, err := task.Wait()
	if err != nil {
		if errors.Is(err, sched.ErrClosed) {
			return nil, &overloadError{err: err}
		}
		return nil, err
	}
	if tm != nil {
		tm.queue = task.QueueWait()
		tm.exec = task.ExecTime()
		tm.batch = task.BatchSize()
	}
	return v.(*execResult), nil
}

// handleSnapshot runs a full offloaded snapshot and returns the full result
// snapshot, mirroring the request's body encoding.
func (s *Server) handleSnapshot(msg protocol.Message, streamWait time.Duration) (protocol.Message, error) {
	var hdr protocol.SnapshotHeader
	if err := protocol.DecodeHeader(msg, &hdr); err != nil {
		return protocol.Message{}, err
	}
	if err := protocol.VerifyBody(msg.Body, hdr.BodyCRC); err != nil {
		return protocol.Message{}, err
	}
	decodeStart := time.Now()
	plain, err := protocol.DecodeBody(msg.Body, hdr.Encoding)
	if err != nil {
		return protocol.Message{}, err
	}
	snap, err := snapshot.Decode(plain)
	if err != nil {
		return protocol.Message{}, err
	}
	tm := &svcTiming{decode: time.Since(decodeStart), streamWait: streamWait}
	result, err := s.scheduleSnapshot(snap, tm, int64(len(plain)))
	if err != nil {
		return protocol.Message{}, err
	}
	s.snapshotsExecuted.Inc()
	tm.encodeStart = time.Now()
	return s.snapshotResponse(protocol.MsgResultSnapshot, snap.AppID, hdr, result.wire, tm)
}

// snapshotResponse frames a result body, mirroring the request's encoding.
// With tm set it also closes out the request's server-side trace: the spans
// feed the server recorder and trace log, and ride back to the client in
// the response header.
func (s *Server) snapshotResponse(t protocol.MsgType, appID string, req protocol.SnapshotHeader, body []byte, tm *svcTiming) (protocol.Message, error) {
	encoding := protocol.EncodingRaw
	if req.Encoding == protocol.EncodingFlate {
		compressed, err := protocol.CompressBody(body)
		if err != nil {
			return protocol.Message{}, err
		}
		body = compressed
		encoding = protocol.EncodingFlate
	}
	hdr := protocol.SnapshotHeader{
		AppID: appID, Seq: req.Seq, Encoding: encoding,
		Load:    s.loadHint(),
		BodyCRC: protocol.BodyChecksum(body),
	}
	if tm != nil {
		encode := time.Since(tm.encodeStart)
		hdr.ServerTrace = &protocol.ServerTrace{
			TraceID:          req.TraceID,
			DecodeMicros:     tm.decode.Microseconds(),
			QueueMicros:      tm.queue.Microseconds(),
			ExecuteMicros:    tm.exec.Microseconds(),
			EncodeMicros:     encode.Microseconds(),
			BatchSize:        tm.batch,
			StreamWaitMicros: tm.streamWait.Microseconds(),
		}
		s.observeTrace(appID, req.Seq, tm, encode, hdr.ServerTrace)
	}
	return protocol.Encode(t, hdr, body)
}

// observeTrace folds one completed request's spans into the server's stage
// histograms and, when configured, appends a JSON line to the trace log.
// Decode and encode fold into the execute stage, mirroring how the client
// merges the server report; the full split survives in the trace log.
func (s *Server) observeTrace(appID string, seq uint64, tm *svcTiming, encode time.Duration, st *protocol.ServerTrace) {
	s.rec.Observe(trace.StageQueue, tm.queue)
	s.rec.Observe(trace.StageExecute, tm.decode+tm.exec+encode)
	s.rec.Observe(trace.StageStreamWait, tm.streamWait)
	total := tm.streamWait + tm.decode + tm.queue + tm.exec + encode
	if s.cfg.SLO != nil {
		s.cfg.SLO.Observe(total)
		// A request that blew the objective is exactly what the flight
		// recorder exists for: capture its full span tree while the SLO
		// burn accounting is still catching up.
		if s.cfg.Flight != nil && total > s.cfg.SLO.Objective() {
			s.cfg.Flight.Record(telemetry.FlightEntry{
				TraceID: st.TraceID,
				Reason:  telemetry.FlightSlow,
				Note:    fmt.Sprintf("app %s seq %d over objective %v", appID, seq, s.cfg.SLO.Objective()),
				Span:    s.serveSpan(appID, tm, encode, total),
			})
		}
	}
	if s.log.Enabled(obs.LevelDebug) {
		s.log.Debug("offload served",
			obs.TraceID(st.TraceID),
			obs.F("appId", appID),
			obs.F("seq", seq),
			obs.F("queueMicros", tm.queue.Microseconds()),
			obs.F("executeMicros", tm.exec.Microseconds()),
			obs.F("batchSize", tm.batch),
		)
	}
	if s.cfg.TraceLog == nil {
		return
	}
	line, err := json.Marshal(struct {
		TraceID string `json:"traceId,omitempty"`
		AppID   string `json:"appId"`
		Seq     uint64 `json:"seq"`
		*protocol.ServerTrace
	}{TraceID: st.TraceID, AppID: appID, Seq: seq, ServerTrace: st})
	if err != nil {
		return
	}
	s.traceLogMu.Lock()
	defer s.traceLogMu.Unlock()
	if _, err := s.cfg.TraceLog.Write(append(line, '\n')); err != nil {
		s.logf("edge: trace log: %v", err)
	}
}

// TraceRecorder exposes the server's aggregated stage histograms.
func (s *Server) TraceRecorder() *trace.Recorder { return s.rec }

// serveSpan renders one request's svcTiming as a span tree: the serve root
// with one child per pipeline stage, plus any fleet-hop spans (registry
// locate, peer fetch) collected while recovering a delta base.
func (s *Server) serveSpan(appID string, tm *svcTiming, encode, total time.Duration) *protocol.SpanNode {
	root := &protocol.SpanNode{
		Op:     "serve",
		Addr:   s.cfg.AdvertiseAddr,
		Micros: total.Microseconds(),
		Detail: appID,
	}
	if tm.streamWait > 0 {
		root.Children = append(root.Children,
			&protocol.SpanNode{Op: "stream_wait", Micros: tm.streamWait.Microseconds()})
	}
	root.Children = append(root.Children,
		&protocol.SpanNode{Op: "decode", Micros: tm.decode.Microseconds()},
		&protocol.SpanNode{Op: "queue", Micros: tm.queue.Microseconds()},
		&protocol.SpanNode{Op: "execute", Micros: tm.exec.Microseconds()},
		&protocol.SpanNode{Op: "encode", Micros: encode.Microseconds()},
	)
	root.Children = append(root.Children, tm.spans...)
	return root
}

// StatsDigest snapshots the server's telemetry for one registry heartbeat:
// every stage histogram in mergeable bucket form, the decision mix, and the
// live queue depth and store charge. cmd/edged wires this as the fleet
// agent's Stats supplier; fleetd merges the digests into fleet-wide
// rollups. Counters are cumulative, so the registry keeping only the latest
// digest per member loses nothing.
func (s *Server) StatsDigest() *protocol.StatsDigest {
	src := telemetry.DigestSource{
		Recorder: s.rec,
		Decisions: func() map[string]uint64 {
			m := s.Metrics()
			st := s.sched.Stats()
			return map[string]uint64{
				"snapshot_full":  uint64(m.SnapshotsExecuted),
				"snapshot_delta": uint64(m.DeltasExecuted),
				"shed":           uint64(st.Rejected),
				"error":          uint64(m.Errors),
				"ref_hit":        uint64(s.refPreSendHits.Value()),
				"ref_miss":       uint64(s.refPreSendMisses.Value()),
				"peer_fetch":     uint64(s.blobPeerFetches.Value()),
				"base_recovered": uint64(s.basesRecovered.Value()),
			}
		},
		QueueDepth: func() int { return s.sched.Stats().QueueDepth },
		StoreBytes: func() int64 { return s.store.Bytes() },
		Start:      s.start,
	}
	return src.Digest()
}

// handleSnapshotDelta runs an offload shipped as a delta against the state
// left at the server by the previous offload (§VI), and answers with a
// result delta relative to the reconstructed pre-execution state.
func (s *Server) handleSnapshotDelta(msg protocol.Message, streamWait time.Duration) (protocol.Message, error) {
	var hdr protocol.SnapshotHeader
	if err := protocol.DecodeHeader(msg, &hdr); err != nil {
		return protocol.Message{}, err
	}
	if err := protocol.VerifyBody(msg.Body, hdr.BodyCRC); err != nil {
		return protocol.Message{}, err
	}
	decodeStart := time.Now()
	plain, err := protocol.DecodeBody(msg.Body, hdr.Encoding)
	if err != nil {
		return protocol.Message{}, err
	}
	delta, err := snapshot.DecodeDelta(plain)
	if err != nil {
		return protocol.Message{}, err
	}
	// Base recovery crosses fleet hops; propagate the request's trace
	// through them.
	var trail *spanTrail
	if hdr.TraceID != "" {
		trail = &spanTrail{traceID: hdr.TraceID}
	}
	base, ok := s.store.GetState(delta.AppID)
	if !ok && s.fleetEnabled() {
		// A roaming session's previous server published the synced state
		// under its content hash; adopt it instead of failing the delta.
		if recovered, rerr := s.recoverBase(delta.AppID, delta.BaseHash, trail); rerr == nil {
			base, ok = recovered, true
		} else {
			s.logf("edge: delta base %s for app %q not in fleet: %v", delta.BaseHash, delta.AppID, rerr)
		}
	}
	if !ok {
		return protocol.Message{}, fmt.Errorf("%w: no state for app %q at this server",
			snapshot.ErrBaseMismatch, delta.AppID)
	}
	preExec, err := delta.Apply(base)
	if err != nil && s.fleetEnabled() && errors.Is(err, snapshot.ErrBaseMismatch) {
		// The stored state is from another session generation; the fleet
		// may hold the exact base this delta wants.
		if recovered, rerr := s.recoverBase(delta.AppID, delta.BaseHash, trail); rerr == nil {
			preExec, err = delta.Apply(recovered)
		}
	}
	if err != nil {
		return protocol.Message{}, err
	}
	tm := &svcTiming{decode: time.Since(decodeStart), streamWait: streamWait}
	if trail != nil {
		tm.spans = trail.spans
	}
	result, err := s.scheduleSnapshot(preExec, tm, int64(len(plain)))
	if err != nil {
		return protocol.Message{}, err
	}
	s.deltasExecuted.Inc()
	tm.encodeStart = time.Now()
	resultDelta, err := snapshot.Diff(preExec, result.snap)
	if err != nil {
		return protocol.Message{}, err
	}
	body, err := resultDelta.Encode()
	if err != nil {
		return protocol.Message{}, err
	}
	return s.snapshotResponse(protocol.MsgResultDelta, delta.AppID, hdr, body, tm)
}

// handleInstall performs on-demand installation by VM synthesis: the client
// ships a VM overlay containing the offloading system; once synthesized,
// the server is customized and starts serving offload requests (§III.B.3).
func (s *Server) handleInstall(msg protocol.Message) (protocol.Message, error) {
	var hdr protocol.InstallOverlayHeader
	if err := protocol.DecodeHeader(msg, &hdr); err != nil {
		return protocol.Message{}, err
	}
	if s.Installed() {
		return protocol.Encode(protocol.MsgInstallDone,
			protocol.InstallDoneHeader{SynthesisMillis: 0, Seq: hdr.Seq}, nil)
	}
	if s.cfg.Synthesizer == nil {
		return protocol.Message{}, errors.New("no synthesizer available")
	}
	res, err := s.cfg.Synthesizer.Synthesize(hdr.BaseImage, msg.Body)
	if err != nil {
		return protocol.Message{}, fmt.Errorf("vm synthesis: %w", err)
	}
	s.installedMu.Lock()
	s.installed = true
	s.installedMu.Unlock()
	s.installs.Inc()
	s.logf("edge: installed offloading system via VM synthesis (%v)", res.SynthesisTime)
	return protocol.Encode(protocol.MsgInstallDone, protocol.InstallDoneHeader{
		BaseImage:       hdr.BaseImage,
		SynthesisMillis: res.SynthesisTime.Milliseconds(),
		Seq:             hdr.Seq,
	}, nil)
}
