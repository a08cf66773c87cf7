// Package fleet turns a set of independent edge servers into one edge
// environment: a registry tracks live servers (TTL-based liveness) and the
// content-addressed blobs each holds, a placement layer maps sessions onto
// servers (consistent hashing blended with load hints), and a blob index
// lets servers fetch models and synced snapshots from peers so a roaming
// client never re-uploads state the fleet already holds. This is the
// multi-server counterpart of the paper's single edge server (§II):
// "cloud-like computing power located close to mobile devices" implies many
// servers, and a client that moves between them.
package fleet

import (
	"sort"
	"sync"
	"time"

	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/telemetry"
)

// DefaultTTL is how long a registration stays live without a heartbeat
// when the registering server does not name its own TTL.
const DefaultTTL = 5 * time.Second

// entry is one registered server.
type entry struct {
	addr     string
	capacity int
	ttl      time.Duration
	load     *protocol.LoadHint
	blobs    map[string]struct{}
	last     time.Time // registry clock
	// stats is the member's last piggybacked telemetry digest (nil for
	// members whose agent has no digest supplier). Digests are cumulative,
	// so keeping only the latest loses nothing.
	stats *protocol.StatsDigest
}

// RegistryOptions configures a Registry.
type RegistryOptions struct {
	// TTL is the default registration lifetime (DefaultTTL when zero).
	TTL time.Duration
	// Now supplies the registry clock; nil means time.Now. Tests inject a
	// fake clock to exercise expiry without sleeping.
	Now func() time.Time
	// Metrics, when set, receives the registry's counters and gauges.
	Metrics *obs.Registry
	// Logger, when set, records membership changes.
	Logger *obs.Logger
	// OnStats, when set, is called after each heartbeat that carries a
	// telemetry digest (outside the registry lock) — fleetd hooks SLO
	// burn accounting here.
	OnStats func(addr string, d *protocol.StatsDigest)
}

// Registry is the fleet membership and blob-location authority. Liveness is
// lazy: expired entries are pruned on the next read or write, so no
// background goroutine is needed and a fake clock drives expiry in tests.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	version uint64
	ttl     time.Duration
	now     func() time.Time
	log     *obs.Logger
	onStats func(addr string, d *protocol.StatsDigest)

	regs    *obs.Counter
	expires *obs.Counter
	locates *obs.Counter
}

// NewRegistry builds an empty registry.
func NewRegistry(opts RegistryOptions) *Registry {
	ttl := opts.TTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	r := &Registry{
		entries: make(map[string]*entry),
		ttl:     ttl,
		now:     now,
		log:     opts.Logger,
		onStats: opts.OnStats,
	}
	if m := opts.Metrics; m != nil {
		r.regs = m.Counter("fleet_registrations_total",
			"Registrations and heartbeats accepted by the registry.")
		r.expires = m.Counter("fleet_expirations_total",
			"Registrations dropped because their TTL lapsed without a heartbeat.")
		r.locates = m.Counter("fleet_blob_locates_total",
			"Blob location queries answered by the registry.")
		m.GaugeFunc("fleet_servers",
			"Live fleet members (TTL not yet lapsed).",
			func() float64 { return float64(r.Servers()) })
	}
	return r
}

// Register records a server's registration or heartbeat and returns the
// live-member count and view version after it. The heartbeat carries the
// server's full blob-key list; replacing (not merging) the stored set keeps
// the index honest when a server evicts a blob.
func (r *Registry) Register(h protocol.FleetRegisterHeader) (servers int, version uint64) {
	if h.Stats != nil && r.onStats != nil {
		defer r.onStats(h.Addr, h.Stats)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.pruneLocked(now)
	ttl := time.Duration(h.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = r.ttl
	}
	e, ok := r.entries[h.Addr]
	if !ok {
		e = &entry{addr: h.Addr}
		r.entries[h.Addr] = e
		r.log.Info("fleet: server joined", obs.F("addr", h.Addr), obs.F("capacity", h.Capacity))
	}
	e.capacity = h.Capacity
	e.ttl = ttl
	e.load = h.Load
	e.blobs = make(map[string]struct{}, len(h.Blobs))
	for _, k := range h.Blobs {
		e.blobs[k] = struct{}{}
	}
	if h.Stats != nil {
		e.stats = h.Stats
	}
	e.last = now
	r.version++
	if r.regs != nil {
		r.regs.Inc()
	}
	return len(r.entries), r.version
}

// View returns the current live membership. AgeMillis is relative to the
// registry's clock, so clients judge hint freshness without comparing their
// own clock against the registry's.
func (r *Registry) View() protocol.FleetViewHeader {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.pruneLocked(now)
	servers := make([]protocol.FleetServer, 0, len(r.entries))
	for _, e := range r.entries {
		servers = append(servers, protocol.FleetServer{
			Addr:      e.addr,
			Capacity:  e.capacity,
			Load:      e.load,
			AgeMillis: now.Sub(e.last).Milliseconds(),
		})
	}
	sort.Slice(servers, func(i, j int) bool { return servers[i].Addr < servers[j].Addr })
	return protocol.FleetViewHeader{Version: r.version, Servers: servers}
}

// Locate reports which live servers hold each blob key. Keys nobody holds
// are absent from the result.
func (r *Registry) Locate(keys []string) map[string][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked(r.now())
	if r.locates != nil {
		r.locates.Inc()
	}
	holders := make(map[string][]string)
	for _, key := range keys {
		var addrs []string
		for _, e := range r.entries {
			if _, ok := e.blobs[key]; ok {
				addrs = append(addrs, e.addr)
			}
		}
		if len(addrs) > 0 {
			sort.Strings(addrs)
			holders[key] = addrs
		}
	}
	return holders
}

// Stats snapshots every live member's identity, load, staleness, and last
// telemetry digest — the raw material for fleetd's rollup exposition,
// /fleet summary, and SLO accounting.
func (r *Registry) Stats() []telemetry.ServerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.pruneLocked(now)
	out := make([]telemetry.ServerStats, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, telemetry.ServerStats{
			Addr:      e.addr,
			Capacity:  e.capacity,
			Load:      e.load,
			AgeMillis: now.Sub(e.last).Milliseconds(),
			Stats:     e.stats,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Servers returns the live-member count.
func (r *Registry) Servers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked(r.now())
	return len(r.entries)
}

// Version returns the current view version. Expiry is lazy, so pending
// TTL lapses are applied first — otherwise a freshly expired member would
// leave Version behind the version a concurrent View reports.
func (r *Registry) Version() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked(r.now())
	return r.version
}

func (r *Registry) pruneLocked(now time.Time) {
	for addr, e := range r.entries {
		if now.Sub(e.last) > e.ttl {
			delete(r.entries, addr)
			r.version++
			if r.expires != nil {
				r.expires.Inc()
			}
			r.log.Warn("fleet: server expired", obs.F("addr", addr))
		}
	}
}
