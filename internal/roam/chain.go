// Multi-hop chain placement and execution: the roam-layer driver of K-way
// partial inference. A ChainExecutor plans an ordered cut set over live
// candidate servers (rendezvous/probe ranked, queue hints folded into the
// DP), pre-sends the model along the chain, executes via the client chain
// protocol, and degrades on failure — excluding the dead hop and
// re-planning a shorter chain, down to 2-way and finally local execution —
// while emitting exactly one audit decision per request.
package roam

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"websnap/internal/client"
	"websnap/internal/costmodel"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/obs"
	"websnap/internal/partition"
	"websnap/internal/protocol"
	"websnap/internal/telemetry"
	"websnap/internal/tensor"
	"websnap/internal/trace"
)

// chainRawBytesPerValue is the wire cost of one boundary value: chain
// frames ship raw little-endian float32s, not snapshot text, so each value
// is exactly 4 bytes.
const chainRawBytesPerValue = 4

// chainStateOverheadBytes approximates the non-tensor part of one chain
// frame: the JSON header with the hop manifest and trace identity.
const chainStateOverheadBytes = 512

// maxChainAttempts is a safety bound on re-planning rounds; every round
// either excludes a failed server or shortens the chain, so the bound is
// never the thing that terminates a healthy run.
const maxChainAttempts = 16

// ChainServer is one candidate chain hop: its address and the live queue
// state the planner folds into the cut-set DP.
type ChainServer struct {
	Addr string
	// QueueDelay is the server's estimated scheduler queueing delay from
	// its freshest load hint (zero when unknown).
	QueueDelay time.Duration
	// Saturated marks a server advertising a full admission queue; the
	// planner skips it — a chain is only as fast as its slowest hop.
	Saturated bool
}

// ChainCandidates derives chain hop candidates from the roamer's freshest
// probe state: healthy, freshly probed servers in selection order
// (unsaturated before saturated, then by score). Saturation is reported,
// not filtered, so the executor can still build a chain from a degraded
// fleet when nothing better exists.
func (r *Roamer) ChainCandidates() []ChainServer {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.cfg.Now()
	type scored struct {
		cs   ChainServer
		info ServerInfo
	}
	var ranked []scored
	for _, addr := range r.order {
		info := r.servers[addr]
		if !info.Healthy || r.stale(info, now) {
			continue
		}
		cs := ChainServer{Addr: addr}
		if info.Load != nil {
			cs.QueueDelay = info.Load.QueueingDelay()
			cs.Saturated = info.Load.Saturated
		}
		ranked = append(ranked, scored{cs: cs, info: *info})
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].info.better(ranked[j].info) })
	out := make([]ChainServer, len(ranked))
	for i, s := range ranked {
		out[i] = s.cs
	}
	return out
}

// FleetChainView adapts a fleet placement view (e.g. fleet.PickChain over
// a registry view) into the executor's candidate supplier, carrying each
// server's advertised queueing delay and saturation into the planner.
func FleetChainView(view func() []protocol.FleetServer) func() []ChainServer {
	return func() []ChainServer {
		servers := view()
		out := make([]ChainServer, 0, len(servers))
		for _, s := range servers {
			cs := ChainServer{Addr: s.Addr}
			if s.Load != nil {
				cs.QueueDelay = s.Load.QueueingDelay()
				cs.Saturated = s.Load.Saturated
			}
			out = append(out, cs)
		}
		return out
	}
}

// ChainConfig parametrizes a ChainExecutor.
type ChainConfig struct {
	// AppID and ModelName identify the model at every hop; Model is the
	// full network the client holds (and pre-sends along the chain).
	AppID     string
	ModelName string
	Model     *nn.Network
	// Client is the client device's latency model; Server is the default
	// per-hop model, overridable per address via HopDevice.
	Client    costmodel.Device
	Server    costmodel.Device
	HopDevice func(addr string) costmodel.Device
	// Network is the default per-link profile; HopLink, when set, names
	// the link INTO the given hop (the client→first-hop link for the
	// first address, hop-to-hop otherwise).
	Network netem.Profile
	HopLink func(addr string) netem.Profile
	// Depth is the desired chain depth in servers (>= 1); zero selects 2.
	// The executor degrades below it when candidates, cut points, or
	// failures demand.
	Depth int
	// RequireDenature keeps at least one real layer on the client (the
	// paper's privacy constraint).
	RequireDenature bool
	// Objective selects what the cut-set DP minimizes (latency default).
	Objective partition.Objective
	// Candidates supplies the live candidate servers, best first —
	// typically (*Roamer).ChainCandidates or FleetChainView. Called once
	// per planning round, so re-plans see fresh membership and hints.
	Candidates func() []ChainServer
	// Dial opens an offloading connection to a hop. Nil selects
	// client.Dial. Chaos tests wrap here.
	Dial func(addr string) (*client.Conn, error)
	// Local executes the full model locally (the terminal fallback). Nil
	// selects Model.Forward.
	Local func(in *tensor.Tensor) (*tensor.Tensor, error)
	// Auditor receives exactly one decision per Execute call (nil-safe).
	Auditor *obs.Auditor
	// Flight, when non-nil, captures every chain re-plan.
	Flight *telemetry.FlightRecorder
	// Logger, when non-nil, records planning and degradation decisions.
	Logger *obs.Logger
}

// ChainExecutor runs multi-hop partial inference with re-planning.
// Connections (with the model pre-sent) are cached per hop address across
// Execute calls; Close releases them.
type ChainExecutor struct {
	cfg         ChainConfig
	resultBytes int64

	mu      sync.Mutex
	conns   map[string]*client.Conn
	replans int
}

// NewChainExecutor validates the configuration and prepares an executor.
func NewChainExecutor(cfg ChainConfig) (*ChainExecutor, error) {
	if cfg.Model == nil {
		return nil, errors.New("roam: chain: nil model")
	}
	if cfg.AppID == "" || cfg.ModelName == "" {
		return nil, errors.New("roam: chain: empty app or model name")
	}
	if cfg.Candidates == nil {
		return nil, errors.New("roam: chain: nil candidate supplier")
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 2
	}
	if cfg.Dial == nil {
		cfg.Dial = client.Dial
	}
	if cfg.Local == nil {
		cfg.Local = cfg.Model.Forward
	}
	// Zero-valued device and link models would fail DP validation on every
	// planning round; default them to the paper's calibrated profiles.
	if cfg.Client.Name == "" {
		cfg.Client = costmodel.ClientOdroid
	}
	if cfg.Server.Name == "" {
		cfg.Server = costmodel.ServerX86
	}
	if cfg.Network.BandwidthBitsPerSec == 0 {
		cfg.Network = netem.WiFi30Mbps
	}
	out, err := cfg.Model.OutputShape()
	if err != nil {
		return nil, fmt.Errorf("roam: chain: %w", err)
	}
	return &ChainExecutor{
		cfg:         cfg,
		resultBytes: int64(4 * tensor.Volume(out)),
		conns:       make(map[string]*client.Conn),
	}, nil
}

// Replans counts chain re-planning rounds across all Execute calls.
func (e *ChainExecutor) Replans() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.replans
}

// Close releases every cached hop connection.
func (e *ChainExecutor) Close() error {
	e.mu.Lock()
	conns := e.conns
	e.conns = make(map[string]*client.Conn)
	e.mu.Unlock()
	var first error
	for _, c := range conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ChainReport describes one Execute outcome.
type ChainReport struct {
	// Path is the audited execution path: chain, fallback (local after a
	// chain failure), local (no candidates), or error.
	Path obs.DecisionPath
	// Hops is the manifest that produced the result (nil for local).
	Hops []protocol.ChainHop
	// TraceID is the request's end-to-end trace identity.
	TraceID string
	// Replans counts re-planning rounds within this request.
	Replans int
	// Predicted is the DP's end-to-end estimate for the executed plan;
	// Measured is the observed wall time.
	Predicted, Measured time.Duration
	// Span is the merged chain span tree (first hop's subtree with every
	// downstream hop grafted beneath it), when telemetry returned one.
	Span *protocol.SpanNode
}

// Execute runs one inference through the best available chain, re-planning
// around failed hops and falling back to local execution when no chain
// survives. Exactly one audit decision is recorded per call, whatever
// path the request takes.
func (e *ChainExecutor) Execute(in *tensor.Tensor) (*tensor.Tensor, ChainReport, error) {
	start := time.Now()
	report := ChainReport{TraceID: trace.NewID()}
	exclude := make(map[string]bool)
	depth := e.cfg.Depth
	var lastErr error
	for attempt := 0; attempt < maxChainAttempts; attempt++ {
		servers := e.liveCandidates(exclude, depth)
		if len(servers) == 0 {
			break
		}
		manifest, cand, err := e.plan(servers)
		if err != nil {
			// Not enough cut points for this depth (tiny model, deep
			// chain): shorten the chain and try again.
			if len(servers) > 1 {
				depth = len(servers) - 1
				continue
			}
			lastErr = err
			break
		}
		out, span, err := e.runChain(manifest, in, report.TraceID)
		if err == nil {
			report.Path = obs.PathChain
			report.Hops = manifest
			report.Predicted = cand.Latency
			report.Measured = time.Since(start)
			report.Span = span
			reason := ""
			switch {
			case report.Replans > 0:
				reason = "replanned"
			case len(manifest) < e.cfg.Depth:
				reason = "degraded-depth"
			}
			e.audit(report, reason)
			return out, report, nil
		}
		lastErr = err
		dead := manifest[0].Addr
		var che *client.ChainHopError
		if errors.As(err, &che) && che.Hop >= 1 && che.Hop <= len(manifest) {
			dead = manifest[che.Hop-1].Addr
		}
		exclude[dead] = true
		e.dropConn(dead)
		report.Replans++
		e.mu.Lock()
		e.replans++
		e.mu.Unlock()
		e.cfg.Logger.Warn("chain: hop failed, re-planning",
			obs.TraceID(report.TraceID),
			obs.F("dead", dead), obs.F("error", err.Error()),
			obs.F("replans", report.Replans))
		if e.cfg.Flight != nil {
			e.cfg.Flight.Record(telemetry.FlightEntry{
				TraceID: report.TraceID,
				Reason:  telemetry.FlightReplan,
				Note:    fmt.Sprintf("hop %s failed (%v); excluding and re-planning", dead, err),
				Span:    span,
			})
		}
	}
	// Terminal fallback: local execution, still exactly one decision.
	out, err := e.cfg.Local(in)
	report.Measured = time.Since(start)
	if err != nil {
		report.Path = obs.PathError
		e.audit(report, "local-failed")
		if lastErr != nil {
			return nil, report, fmt.Errorf("roam: chain failed (%v) and local fallback failed: %w", lastErr, err)
		}
		return nil, report, fmt.Errorf("roam: local execution failed: %w", err)
	}
	if lastErr != nil {
		report.Path = obs.PathFallback
		e.audit(report, "chain-failed")
	} else {
		report.Path = obs.PathLocal
		e.audit(report, "no-candidates")
	}
	return out, report, nil
}

// liveCandidates filters the supplier's view down to at most depth
// unexcluded, unsaturated servers, best first.
func (e *ChainExecutor) liveCandidates(exclude map[string]bool, depth int) []ChainServer {
	var out []ChainServer
	for _, s := range e.cfg.Candidates() {
		if exclude[s.Addr] || s.Saturated {
			continue
		}
		out = append(out, s)
		if len(out) == depth {
			break
		}
	}
	return out
}

// plan runs the cut-set DP over the candidate servers and translates the
// winning cut set into a protocol hop manifest.
func (e *ChainExecutor) plan(servers []ChainServer) ([]protocol.ChainHop, partition.ChainCandidate, error) {
	hops := make([]partition.Hop, 0, len(servers)+1)
	hops = append(hops, partition.Hop{Device: e.cfg.Client})
	links := make([]netem.Profile, 0, len(servers))
	for _, s := range servers {
		dev := e.cfg.Server
		if e.cfg.HopDevice != nil {
			dev = e.cfg.HopDevice(s.Addr)
		}
		link := e.cfg.Network
		if e.cfg.HopLink != nil {
			link = e.cfg.HopLink(s.Addr)
		}
		hops = append(hops, partition.Hop{Device: dev, QueueDelay: s.QueueDelay})
		links = append(links, link)
	}
	plan, err := partition.AnalyzeChain(e.cfg.Model, partition.ChainConfig{
		Hops:               hops,
		Links:              links,
		TextBytesPerValue:  chainRawBytesPerValue,
		StateOverheadBytes: chainStateOverheadBytes,
		ResultBytes:        e.resultBytes,
		Objective:          e.cfg.Objective,
	})
	if err != nil {
		return nil, partition.ChainCandidate{}, err
	}
	cand, err := plan.Choose(e.cfg.RequireDenature)
	if err != nil {
		return nil, partition.ChainCandidate{}, err
	}
	manifest := make([]protocol.ChainHop, len(servers))
	for i := range servers {
		hc := cand.Hops[i+1]
		manifest[i] = protocol.ChainHop{Addr: servers[i].Addr, From: hc.From, To: hc.To}
	}
	return manifest, cand, nil
}

// runChain pre-sends the model along the manifest, executes the client's
// front range locally, and drives the chain protocol. Failures carry hop
// attribution whenever one exists.
func (e *ChainExecutor) runChain(manifest []protocol.ChainHop, in *tensor.Tensor, traceID string) (*tensor.Tensor, *protocol.SpanNode, error) {
	for i, hop := range manifest {
		if _, err := e.hopConn(hop.Addr); err != nil {
			return nil, nil, &client.ChainHopError{Hop: i + 1, Err: err}
		}
	}
	boundary, err := e.cfg.Model.ForwardRange(in, 0, manifest[0].From)
	if err != nil {
		return nil, nil, err
	}
	conn, err := e.hopConn(manifest[0].Addr)
	if err != nil {
		return nil, nil, &client.ChainHopError{Hop: 1, Err: err}
	}
	outcome, err := conn.ChainExec(e.cfg.AppID, e.cfg.ModelName, manifest, boundary, traceID)
	if err != nil {
		if conn.Broken() {
			e.dropConn(manifest[0].Addr)
		}
		return nil, nil, err
	}
	return outcome.Output, outcome.Span, nil
}

// hopConn returns a cached connection to addr with the model pre-sent,
// dialing and pre-sending on first use.
func (e *ChainExecutor) hopConn(addr string) (*client.Conn, error) {
	e.mu.Lock()
	conn := e.conns[addr]
	e.mu.Unlock()
	if conn != nil && !conn.Broken() {
		return conn, nil
	}
	if conn != nil {
		e.dropConn(addr)
	}
	fresh, err := e.cfg.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := fresh.PreSendModel(e.cfg.AppID, e.cfg.ModelName, e.cfg.Model, false); err != nil {
		fresh.Close()
		return nil, err
	}
	e.mu.Lock()
	if prev := e.conns[addr]; prev != nil {
		prev.Close()
	}
	e.conns[addr] = fresh
	e.mu.Unlock()
	return fresh, nil
}

// dropConn closes and forgets the cached connection to addr.
func (e *ChainExecutor) dropConn(addr string) {
	e.mu.Lock()
	conn := e.conns[addr]
	delete(e.conns, addr)
	e.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// audit records the single decision of one Execute call.
func (e *ChainExecutor) audit(report ChainReport, reason string) {
	addrs := make([]string, len(report.Hops))
	for i, h := range report.Hops {
		addrs[i] = h.Addr
	}
	e.cfg.Auditor.Record(obs.Decision{
		TraceID:   report.TraceID,
		AppID:     e.cfg.AppID,
		Path:      report.Path,
		Reason:    reason,
		Server:    strings.Join(addrs, ","),
		Predicted: report.Predicted,
		Measured:  report.Measured,
		HintAge:   -1,
	})
}
