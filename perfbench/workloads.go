package main

import (
	"sync"
	"time"

	"websnap/internal/client"
	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/roam"
)

// googlenet-partial parameters.
const (
	gnetUsers = 2
	gnetPool  = 4
)

type gnetWorld struct {
	base
	users []user
}

func setupGoogLeNet(seed int64) (world, error) {
	w := &gnetWorld{base: base{seed: seed, note: map[string]string{}}}
	return w, w.build()
}

func (w *gnetWorld) build() error {
	w.fresh = func() (*nn.Network, error) { return models.Build(models.GoogLeNet) }
	model, err := w.fresh()
	if err != nil {
		return err
	}
	// The split a privacy-constrained core.Session picks.
	split, err := chooseSplit(model, nn.PrecFloat32)
	if err != nil {
		return err
	}
	w.note["split"] = split.label
	w.spec = appSpec{modelName: models.GoogLeNet, model: model, split: split.index, prec: nn.PrecFloat32}
	if w.pool, err = newRefPool(model, w.spec.prec, gnetPool, w.seed); err != nil {
		return err
	}
	if err := w.startEdges(1); err != nil {
		return err
	}
	for i := 0; i < gnetUsers; i++ {
		conn, err := w.dial(w.edges[0].addr)
		if err != nil {
			return err
		}
		u, err := newProdUser(w.spec, w.appID("gnet"), conn)
		if err != nil {
			return err
		}
		w.users = append(w.users, u)
	}
	return w.warmAll(w.users)
}

// warmAll runs one concurrent warm-up inference per user, compiling the
// front plans at the clients and the rear plan at the server.
func (w *gnetWorld) warmAll(users []user) error {
	errs := make([]error, len(users))
	var wg sync.WaitGroup
	for i, u := range users {
		wg.Add(1)
		go func(i int, u user) {
			defer wg.Done()
			errs[i] = w.warm(u, i%gnetPool)
		}(i, u)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *gnetWorld) run(window time.Duration, tr *tracer, _ bool) (*phase, error) {
	users := w.users
	if tr != nil {
		users = make([]user, gnetUsers)
		for i := range users {
			rs := tr.begin("setup")
			u, err := newTracedUser(w.spec, w.appID("gnet-t"), w.conns[i], rs)
			rs.end()
			if err != nil {
				return nil, err
			}
			users[i], w.lastTraced = u, u
		}
		if err := w.warmAll(users); err != nil {
			return nil, err
		}
	}
	return w.closedLoop(users, window, tr, nil)
}

// agenet-roam parameters.
const (
	agePool = 8
	// ageHandoffEvery is how many inferences the user runs on one server
	// before moving to the other.
	ageHandoffEvery = 4
)

type ageWorld struct {
	base
	roamer *roam.Roamer
	cur    int
	user   *prodUser
}

// roamingUser is a user that can move to another server's connection.
type roamingUser interface {
	user
	moveTo(conn *client.Conn, rs *reqSpan) error
}

func (u *tracedUser) moveTo(conn *client.Conn, rs *reqSpan) error { return u.presend(conn, rs) }

func setupAgeNet(seed int64) (world, error) {
	w := &ageWorld{base: base{seed: seed, note: map[string]string{}}}
	return w, w.build()
}

func (w *ageWorld) build() error {
	w.fresh = func() (*nn.Network, error) { return models.Build(models.AgeNet) }
	model, err := w.fresh()
	if err != nil {
		return err
	}
	w.spec = appSpec{modelName: models.AgeNet, model: model, prec: nn.PrecInt8, delta: true}
	if w.pool, err = newRefPool(model, w.spec.prec, agePool, w.seed); err != nil {
		return err
	}
	if err := w.startEdges(2); err != nil {
		return err
	}
	if w.roamer, err = roam.New(roam.Config{Servers: []string{w.edges[0].addr, w.edges[1].addr}}); err != nil {
		return err
	}
	conn, err := w.roamer.SwitchTo(w.edges[0].addr)
	if err != nil {
		return err
	}
	if w.user, err = newProdUser(w.spec, w.appID("age"), conn); err != nil {
		return err
	}
	if err := w.warm(w.user, 0); err != nil {
		return err
	}
	// First-visit the second server too, so the timed handoffs measure
	// the steady path (pre-send plus first full snapshot), not the
	// server's one-time int8 plan compile.
	if _, err := w.handoff(w.user, nil); err != nil {
		return err
	}
	return w.warm(w.user, 1)
}

// handoff moves u to the other server: a roam switch (dial) followed by the
// model re-pre-send there.
func (w *ageWorld) handoff(u roamingUser, rs *reqSpan) (time.Time, error) {
	start := time.Now()
	w.cur = 1 - w.cur
	var conn *client.Conn
	err := rs.call("roam.switch", func() (int64, error) {
		var err error
		conn, err = w.roamer.SwitchTo(w.edges[w.cur].addr)
		return 0, err
	})
	if err != nil {
		return start, err
	}
	return start, u.moveTo(conn, rs)
}

func (w *ageWorld) run(window time.Duration, tr *tracer, _ bool) (*phase, error) {
	var u roamingUser = w.user
	if tr != nil {
		_, conn := w.roamer.Current()
		rs := tr.begin("setup")
		tu, err := newTracedUser(w.spec, w.appID("age-t"), conn, rs)
		rs.end()
		if err != nil {
			return nil, err
		}
		if err := w.warm(tu, 0); err != nil {
			return nil, err
		}
		u, w.lastTraced = tu, tu
	}
	return w.closedLoop([]user{u}, window, tr, func(_, n int) (time.Time, error) {
		if n == 0 || n%ageHandoffEvery != 0 {
			return time.Time{}, nil
		}
		rs := tr.begin("handoff")
		defer rs.end()
		return w.handoff(u, rs)
	})
}

func (w *ageWorld) close() {
	if w.roamer != nil {
		w.roamer.Close()
	}
	w.base.close()
}
