package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"websnap/internal/client"
	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/trace"
	"websnap/internal/webapp"
)

// tiny-churn parameters.
const (
	// tinySlots is the number of concurrent users, all streams on one mux
	// connection; a departing user's slot is taken by a new one.
	tinySlots = 32
	// tinyMeanLife is the mean of the geometric number of inferences a
	// user issues before leaving.
	tinyMeanLife = 8
	tinyPool     = 64
	tinyClasses  = 10
	// tinyRate is the open-loop rate of the ladder's first rung: about
	// half of what the 32 users sustain closed-loop on a 2-vCPU host.
	tinyRate = 450.0
	// tinyLimitMs is the ladder's p99 latency limit.
	tinyLimitMs = 50.0
	// tinyFirstRung and tinyRung are the ladder rungs' shares of the
	// window; the rest of the window is the closed-loop measurement.
	tinyFirstRung = 0.16
	tinyRung      = 0.04
)

// tinyLadder is the fixed open-loop rate ladder behind max_rate_rps; its
// first rung is the fixed rate behind the open-loop latency and the
// generator-health figures.
var tinyLadder = []float64{tinyRate, 550, 650, 750, 850}

type tinyWorld struct {
	base
	conn *client.Conn
	// slots are the production users, one churning slot each.
	slots []user
	// demux collects the mux connection's response-routing latencies.
	demux *trace.Recorder
}

func setupTiny(seed int64) (world, error) {
	w := &tinyWorld{base: base{seed: seed, note: map[string]string{}}, demux: trace.NewRecorder()}
	return w, w.build()
}

func (w *tinyWorld) build() error {
	w.fresh = func() (*nn.Network, error) { return models.BuildTinyNet("tinynet", tinyClasses) }
	model, err := w.fresh()
	if err != nil {
		return err
	}
	w.spec = appSpec{modelName: "tinynet", model: model, prec: nn.PrecFloat32, delta: true}
	if w.pool, err = newRefPool(model, w.spec.prec, tinyPool, w.seed); err != nil {
		return err
	}
	if err := w.startEdges(1); err != nil {
		return err
	}
	if w.conn, err = w.dial(w.edges[0].addr); err != nil {
		return err
	}
	if ok, err := w.conn.NegotiateMux(client.DefaultMaxStreams); err != nil || !ok {
		return fmt.Errorf("mux negotiation: ok=%v err=%v", ok, err)
	}
	w.slots, err = w.newSlots(nil)
	return err
}

// newSlots creates one warm user per slot: production users when tr is
// nil, traced users otherwise.
func (w *tinyWorld) newSlots(tr *tracer) ([]user, error) {
	mk := func(*reqSpan) (user, error) {
		u, err := newProdUser(w.spec, w.appID("tiny"), w.conn)
		// A new offloader claims the shared connection's demux feed.
		w.conn.SetTraceRecorder(w.demux)
		return u, err
	}
	if tr != nil {
		mk = func(rs *reqSpan) (user, error) {
			u, err := newTracedUser(w.spec, w.appID("tiny-t"), w.conn, rs)
			if err == nil {
				w.lastTraced = u
			}
			return u, err
		}
	}
	slots := make([]user, tinySlots)
	for i := range slots {
		s := &churnSlot{mk: mk, rng: rand.New(rand.NewSource(w.seed*104_729 + int64(i)))}
		rs := tr.begin("setup")
		if err := s.join(rs); err != nil {
			return nil, err
		}
		rs.end()
		if err := w.warm(s.cur, i%tinyPool); err != nil {
			return nil, err
		}
		slots[i] = s
	}
	return slots, nil
}

// churnSlot is one user slot: its user issues a geometric number of
// inferences and leaves; the next inference belongs to a new user (a new
// app ID) who pre-sends the model and ships a first full snapshot.
type churnSlot struct {
	cur  user
	left int
	mk   func(*reqSpan) (user, error)
	rng  *rand.Rand
}

func (s *churnSlot) join(rs *reqSpan) error {
	u, err := s.mk(rs)
	if err != nil {
		return err
	}
	s.cur = u
	s.left = 1 + int(math.Floor(math.Log(1-s.rng.Float64())/math.Log(1-1.0/tinyMeanLife)))
	return nil
}

func (s *churnSlot) classify(img webapp.Float32Array, rs *reqSpan) (outcome, error) {
	if s.left == 0 {
		if err := s.join(rs); err != nil {
			return outcome{}, err
		}
	}
	s.left--
	return s.cur.classify(img, rs)
}

// run measures the 32 churning users closed-loop; with extras, the last
// third of the window climbs the open-loop rate ladder.
func (w *tinyWorld) run(window time.Duration, tr *tracer, extras bool) (*phase, error) {
	slots := w.slots
	if tr != nil {
		var err error
		if slots, err = w.newSlots(tr); err != nil {
			return nil, err
		}
	}
	closed := window
	if extras {
		closed -= time.Duration((tinyFirstRung + tinyRung*float64(len(tinyLadder)-1)) * float64(window))
	}
	w.demux = trace.NewRecorder()
	w.conn.SetTraceRecorder(w.demux)
	ph, err := w.closedLoop(slots, closed, tr, nil)
	if err != nil {
		return nil, err
	}
	ph.demux = w.demux
	if !extras {
		return ph, nil
	}
	for i, rate := range tinyLadder {
		share := tinyRung
		if i == 0 {
			share = tinyFirstRung
		}
		rung := time.Duration(share * float64(window))
		// Collect the previous phase's garbage first, so its GC cycle does
		// not stall this rung's generator.
		runtime.GC()
		lp := newPhase()
		w.openLoop(tinySchedule(w.seed, int64(i), rate, rung), rung, slots, lp)
		ph.attempted += lp.attempted
		ph.errors += lp.errors
		ph.wrong += lp.wrong
		ph.fallbacks += lp.fallbacks
		if i == 0 {
			ph.fixed = lp
		}
		step := ladderStep{rate: rate, p99: quantile(lp.lat, 0.99), failed: lp.failures()}
		step.pass = step.failed == 0 && step.p99 <= tinyLimitMs &&
			float64(lp.backlogEnd) <= rate*tinyLimitMs/1000
		ph.ladder = append(ph.ladder, step)
		if !step.pass {
			break
		}
	}
	return ph, nil
}

// arrival is one open-loop request for a slot.
type arrival struct {
	due  time.Duration
	slot int
	img  int
}

// tinySchedule draws stream's arrivals at rate over window: a Poisson
// process conditioned on its count (uniform sorted times), each arrival
// for a random slot and pool image.
func tinySchedule(seed, stream int64, rate float64, window time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed*1_000_003 + stream))
	n := int(math.Round(rate * window.Seconds()))
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * window.Seconds()
	}
	sort.Float64s(dues)
	out := make([]arrival, n)
	for i, d := range dues {
		out[i] = arrival{due: time.Duration(d * float64(time.Second)), slot: rng.Intn(tinySlots), img: rng.Intn(tinyPool)}
	}
	return out
}

// openLoop dispatches arrivals at their due times to per-slot workers,
// times each request from when it was due, and records how late the
// generator ran and the backlog left when the window closed.
func (w *tinyWorld) openLoop(arrivals []arrival, window time.Duration, slots []user, ph *phase) {
	ph.rate = float64(len(arrivals)) / window.Seconds()
	per := make([]int, len(slots))
	for _, a := range arrivals {
		per[a.slot]++
	}
	chans := make([]chan arrival, len(slots))
	for s := range chans {
		// Sized to the slot's whole schedule so the generator never blocks.
		chans[s] = make(chan arrival, per[s])
	}
	var (
		wg        sync.WaitGroup
		completed atomic.Int64
	)
	ph.begin()
	t0 := ph.start
	for s := range slots {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for a := range chans[s] {
				o, err := slots[s].classify(w.pool.images[a.img], nil)
				ph.record(t0.Add(a.due), o, err, err == nil && w.pool.check(a.img, o))
				completed.Add(1)
			}
		}(s)
	}
	lags := make([]float64, 0, len(arrivals))
	for _, a := range arrivals {
		due := t0.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags = append(lags, ms(time.Since(due)))
		chans[a.slot] <- a
	}
	for _, c := range chans {
		close(c)
	}
	if d := time.Until(t0.Add(window)); d > 0 {
		time.Sleep(d)
	}
	backlog := len(arrivals) - int(completed.Load())
	wg.Wait()
	ph.end()
	ph.genLag, ph.backlogEnd = lags, backlog
}
