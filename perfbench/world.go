package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"websnap/internal/client"
	"websnap/internal/core"
	"websnap/internal/costmodel"
	"websnap/internal/edge"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/partition"
	"websnap/internal/sched"
	"websnap/internal/trace"
)

// world is one set-up workload: its edge servers, model, reference pool
// and warm users.
type world interface {
	// run replays the workload's seeded requests for window: through the
	// production client path when tr is nil, through traced public calls
	// otherwise. extras adds the workload's report-only phases.
	run(window time.Duration, tr *tracer, extras bool) (*phase, error)
	// counters snapshots the program's own server-side statistics.
	counters() counterSnap
	// profile measures the workload's plans and snapshot calls quietly,
	// with no other request in flight.
	profile() (map[string]float64, error)
	notes() map[string]string
	close()
}

// workload is a named, seeded traffic mix.
type workload struct {
	name  string
	why   string
	setup func(seed int64) (world, error)
}

var workloads = []*workload{
	{
		name:  "tiny-churn",
		why:   "TinyNet full offload, 32 churning users (mean 8 inferences) closed-loop on one mux connection plus a 450 req/s open-loop rate ladder: per-request overhead dominates, nn does little",
		setup: setupTiny,
	},
	{
		name:  "googlenet-partial",
		why:   "GoogLeNet float32 partial inference at the chosen privacy split, 2 closed-loop users: nn/tensor float32 compute and 1.9 MB feature-map snapshots dominate",
		setup: setupGoogLeNet,
	},
	{
		name:  "agenet-roam",
		why:   "AgeNet int8 full offload, 1 closed-loop user handing off between two servers every 4 inferences: int8 kernels beside 44 MB model re-pre-sends",
		setup: setupAgeNet,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// edgeHandle is one in-process edge server on a loopback listener.
type edgeHandle struct {
	srv  *edge.Server
	addr string
	done chan struct{}
}

func startEdge() (*edgeHandle, error) {
	srv, err := core.NewEdgeServer(nil)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &edgeHandle{srv: srv, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(e.done)
		_ = srv.Serve(ln) // returns once Close stops the listener
	}()
	return e, nil
}

func (e *edgeHandle) stop() {
	e.srv.Close()
	<-e.done
}

// base holds what every workload's world has.
type base struct {
	seed  int64
	spec  appSpec
	pool  *refPool
	edges []*edgeHandle
	conns []*client.Conn
	// fresh builds a new copy of the model, for timing a cold plan
	// compile.
	fresh  func() (*nn.Network, error)
	nextID atomic.Int64
	// lastTraced is the traced user the quiet replay reuses.
	lastTraced *tracedUser
	note       map[string]string
}

func (b *base) appID(prefix string) string {
	return fmt.Sprintf("%s-%d-%d", prefix, b.seed, b.nextID.Add(1))
}

func (b *base) startEdges(n int) error {
	for i := 0; i < n; i++ {
		e, err := startEdge()
		if err != nil {
			return err
		}
		b.edges = append(b.edges, e)
	}
	return nil
}

func (b *base) dial(addr string) (*client.Conn, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	b.conns = append(b.conns, c)
	return c, nil
}

func (b *base) notes() map[string]string { return b.note }

func (b *base) close() {
	for _, c := range b.conns {
		c.Close()
	}
	for _, e := range b.edges {
		e.stop()
	}
}

// warm runs one untimed inference for u and checks it.
func (b *base) warm(u user, img int) error {
	o, err := u.classify(b.pool.images[img], nil)
	if err != nil {
		return fmt.Errorf("warm-up inference: %w", err)
	}
	if o.fallback || !b.pool.check(img, o) {
		return fmt.Errorf("warm-up inference on image %d: got %q (fallback %v), want %q",
			img, o.label, o.fallback, b.pool.labels[img])
	}
	return nil
}

// closedLoop runs users back to back, each issuing its next request as
// soon as the previous result is on screen, until window ends. before, if
// non-nil, runs ahead of request n of user i (a roaming handoff) and
// returns a time to measure the handoff from, or the zero time.
func (b *base) closedLoop(users []user, window time.Duration, tr *tracer,
	before func(i, n int) (time.Time, error)) (*phase, error) {
	ph := newPhase()
	ph.begin()
	deadline := ph.start.Add(window)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		runErr error
	)
	for i, u := range users {
		wg.Add(1)
		go func(i int, u user) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*7919 + int64(i)))
			for n := 0; time.Now().Before(deadline); n++ {
				var handoff time.Time
				if before != nil {
					var err error
					if handoff, err = before(i, n); err != nil {
						mu.Lock()
						runErr = err
						mu.Unlock()
						return
					}
				}
				img := rng.Intn(len(b.pool.images))
				rs := tr.begin("request")
				t := time.Now()
				o, err := u.classify(b.pool.images[img], rs)
				rs.end()
				ph.record(t, o, err, err == nil && b.pool.check(img, o))
				if !handoff.IsZero() {
					ph.mu.Lock()
					ph.handoffs = append(ph.handoffs, ms(time.Since(handoff)))
					ph.mu.Unlock()
				}
			}
		}(i, u)
	}
	wg.Wait()
	ph.end()
	return ph, runErr
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// analyzeConfig is the partition configuration a core.Session uses: the
// paper's calibrated Odroid client, x86 server and 30 Mbps Wi-Fi.
func analyzeConfig(prec nn.Precision) partition.Config {
	return partition.Config{
		Client:             costmodel.ClientOdroid,
		Server:             costmodel.ServerX86,
		Network:            netem.WiFi30Mbps,
		StateOverheadBytes: 64 << 10,
		ResultBytes:        4 << 10,
		Precision:          prec,
	}
}

// edgeSnap is one server's counters at an instant.
type edgeSnap struct {
	m           edge.Metrics
	st          sched.Stats
	queue, exec histSnap
}

// counterSnap is every server's counters at an instant.
type counterSnap struct {
	at    time.Time
	edges []edgeSnap
}

func (b *base) counters() counterSnap {
	c := counterSnap{at: time.Now()}
	for _, e := range b.edges {
		rec := e.srv.TraceRecorder()
		c.edges = append(c.edges, edgeSnap{
			m:     e.srv.Metrics(),
			st:    e.srv.SchedStats(),
			queue: snapHist(rec.Stage(trace.StageQueue)),
			exec:  snapHist(rec.Stage(trace.StageExecute)),
		})
	}
	return c
}

// histSnap is a histogram's exported buckets, so two snapshots subtract.
type histSnap struct {
	buckets map[int64]int64
	count   uint64
	sum     int64
}

func snapHist(h *trace.Histogram) histSnap {
	bs, count, sum := h.ExportBuckets()
	s := histSnap{buckets: make(map[int64]int64, len(bs)), count: count, sum: sum}
	for _, b := range bs {
		s.buckets[b[0]] = b[1]
	}
	return s
}

// mergeDelta folds the observations made between a and b into h.
func mergeDelta(h *trace.Histogram, a, b histSnap) {
	var diff [][2]int64
	for i, c := range b.buckets {
		if d := c - a.buckets[i]; d > 0 {
			diff = append(diff, [2]int64{i, d})
		}
	}
	h.MergeBuckets(diff, b.count-a.count, b.sum-a.sum)
}

// layerCounters derives the per-layer metrics the program's own statistics
// give for the untraced window between before and after.
func layerCounters(before, after counterSnap, ph *phase) map[string]float64 {
	var (
		exec, queue                      trace.Histogram
		errs, evictions, storeBytes      int64
		snaps, deltas, executed, batches int64
		rejected, workers                int64
		waitP50, waitP95, busy           float64
	)
	for i, a := range after.edges {
		bf := before.edges[i]
		mergeDelta(&exec, bf.exec, a.exec)
		mergeDelta(&queue, bf.queue, a.queue)
		errs += a.m.Errors - bf.m.Errors
		evictions += a.m.StoreEvictions - bf.m.StoreEvictions
		storeBytes += a.m.StoreBytes
		snaps += a.m.SnapshotsExecuted - bf.m.SnapshotsExecuted
		deltas += a.m.DeltasExecuted - bf.m.DeltasExecuted
		n := a.st.Executed - bf.st.Executed
		executed += n
		batches += a.st.Batches - bf.st.Batches
		rejected += a.st.Rejected - bf.st.Rejected
		workers += int64(a.st.Workers)
		// SchedStats reports cumulative quantiles; weight each server's
		// by the tasks it ran in the window.
		waitP50 += ms(a.st.QueueWait.P50) * float64(n)
		waitP95 += ms(a.st.QueueWait.P95) * float64(n)
		busy += a.st.Service.Mean.Seconds() * float64(n)
	}
	wall := after.at.Sub(before.at).Seconds()
	out := map[string]float64{
		"edge.execute_ms":        ms(exec.Quantile(0.5)),
		"edge.execute_p90_ms":    ms(exec.Quantile(0.9)),
		"edge.queue_ms":          ms(queue.Quantile(0.5)),
		"edge.queue_p90_ms":      ms(queue.Quantile(0.9)),
		"edge.errors":            float64(errs),
		"edge.store_mb":          float64(storeBytes) / (1 << 20),
		"edge.store_evictions":   float64(evictions),
		"edge.delta_frac":        ratio(deltas, snaps+deltas),
		"sched.mean_batch":       ratio(executed, batches),
		"sched.rejected":         float64(rejected),
		"sched.utilization":      busy / (float64(workers) * wall),
		"client.delta_hit_ratio": ratio(int64(ph.deltas), int64(ph.offloads)),
		"client.delta_fallbacks": float64(ph.deltaFallbacks),
		"client.redials":         float64(ph.redials),
		"client.local_fallbacks": float64(ph.fallbacks),
		"client.demux_ms":        ms(ph.demux.Stage(trace.StageDemux).Quantile(0.5)),
	}
	if executed > 0 {
		out["sched.queue_wait_ms"] = waitP50 / float64(executed)
		out["sched.queue_wait_p95_ms"] = waitP95 / float64(executed)
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
