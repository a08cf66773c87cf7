package main

import (
	"errors"
	"fmt"
	"math"

	"websnap/internal/client"
	"websnap/internal/mlapp"
	"websnap/internal/nn"
	"websnap/internal/snapshot"
	"websnap/internal/tensor"
	"websnap/internal/webapp"
)

// appSpec describes the ML web app every user of a workload runs.
type appSpec struct {
	modelName string
	model     *nn.Network
	// split is the partition point's layer index for partial inference;
	// 0 selects full offloading.
	split int
	prec  nn.Precision
	delta bool
}

func (s appSpec) partial() bool { return s.split > 0 }

// newApp builds one user's app instance (Fig 2 full or Fig 5 partial).
func (s appSpec) newApp(appID string) (*webapp.App, error) {
	var (
		app *webapp.App
		err error
	)
	if s.partial() {
		app, err = mlapp.NewPartialApp(appID, s.modelName, s.model, s.split, nil)
	} else {
		app, err = mlapp.NewFullApp(appID, s.modelName, s.model, nil)
	}
	if err == nil && s.prec != nn.PrecFloat32 {
		err = mlapp.SetQuality(app, s.prec)
	}
	return app, err
}

// offloaded returns the model the app pre-sends and whether it is the
// rear half of a split DNN.
func (s appSpec) offloaded(app *webapp.App) (string, *nn.Network, bool) {
	if s.partial() {
		name := s.modelName + mlapp.RearSuffix
		net, _ := app.Model(name)
		return name, net, true
	}
	return s.modelName, s.model, false
}

// outcome is what one inference produced, plus the client counters it
// moved.
type outcome struct {
	label    string
	scores   []float32
	wire     int64
	fallback bool

	offloads, deltas, deltaFallbacks, redials int
}

// user runs inferences for one app instance. rs is the request's root span
// (nil when untraced).
type user interface {
	classify(img webapp.Float32Array, rs *reqSpan) (outcome, error)
}

// prodUser drives its app through the production client path: the
// client.Offloader intercepts the offloaded event, pre-sends models, ships
// (delta) snapshots, and falls back to local execution on failure.
type prodUser struct {
	app  *webapp.App
	off  *client.Offloader
	last client.Stats
}

func newProdUser(spec appSpec, appID string, conn *client.Conn) (*prodUser, error) {
	app, err := spec.newApp(appID)
	if err != nil {
		return nil, err
	}
	name, net, partial := spec.offloaded(app)
	opts := client.Options{
		OffloadEventTypes: []string{mlapp.EventClick},
		Models:            []client.ModelToSend{{Name: name, Net: net, Partial: partial}},
		EnableDelta:       spec.delta,
		LocalFallback:     true,
	}
	if partial {
		opts.OffloadEventTypes = []string{mlapp.EventFrontComplete}
		opts.ExcludeModels = []string{spec.modelName + mlapp.FrontSuffix}
	}
	off, err := client.NewOffloader(app, conn, opts)
	if err != nil {
		return nil, err
	}
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		return nil, err
	}
	return &prodUser{app: app, off: off}, nil
}

// moveTo hands the user off to another server's connection and waits for
// the model pre-send there, as a roaming app does on arrival.
func (u *prodUser) moveTo(conn *client.Conn, _ *reqSpan) error {
	if err := u.off.Retarget(conn); err != nil {
		return err
	}
	return u.off.WaitForAcks()
}

func (u *prodUser) classify(img webapp.Float32Array, _ *reqSpan) (outcome, error) {
	if err := mlapp.LoadImage(u.app, img); err != nil {
		return outcome{}, err
	}
	u.app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	_, err := u.off.Run(16)
	st := u.off.Stats()
	o := outcome{
		wire:           st.PreSendBytes - u.last.PreSendBytes,
		offloads:       st.Offloads - u.last.Offloads,
		deltas:         st.DeltaOffloads - u.last.DeltaOffloads,
		deltaFallbacks: st.DeltaFallbacks - u.last.DeltaFallbacks,
		redials:        st.Redials - u.last.Redials,
		fallback:       st.LocalFallbacks > u.last.LocalFallbacks,
	}
	if o.offloads > 0 {
		o.wire += st.LastSnapshotBytes + st.LastResultBytes
	}
	u.last = st
	if err != nil {
		return o, err
	}
	if o.offloads == 0 && !o.fallback {
		return o, errors.New("inference neither offloaded nor run locally")
	}
	o.label, o.scores = mlapp.Result(u.app), scoresOf(u.app)
	return o, nil
}

// tracedUser performs the same offload as prodUser, but through the
// modules' public calls so that each call gets its own span: the app
// (webapp, mlapp), the snapshot module (Capture, Encode or Diff +
// Delta.Encode, Decode/DecodeDelta, Apply/ApplyTo) and the client
// connection (PreSendModel, OffloadSnapshot/OffloadSnapshotDelta).
type tracedUser struct {
	spec     appSpec
	app      *webapp.App
	conn     *client.Conn
	policies map[string]snapshot.ModelPolicy
	// base is the last state both sides hold, the delta base.
	base *snapshot.Snapshot
	// pending is pre-send bytes not yet charged to a request.
	pending int64
}

func newTracedUser(spec appSpec, appID string, conn *client.Conn, rs *reqSpan) (*tracedUser, error) {
	app, err := spec.newApp(appID)
	if err != nil {
		return nil, err
	}
	u := &tracedUser{spec: spec, app: app, conn: conn, policies: map[string]snapshot.ModelPolicy{}}
	if spec.partial() {
		u.policies[spec.modelName+mlapp.FrontSuffix] = snapshot.ModelOmit
	}
	return u, u.presend(conn, rs)
}

// presend ships the offloaded model to conn's server and resets the delta
// base (a new server does not hold it).
func (u *tracedUser) presend(conn *client.Conn, rs *reqSpan) error {
	u.conn, u.base = conn, nil
	name, net, partial := u.spec.offloaded(u.app)
	return rs.call("client.presend", func() (int64, error) {
		if err := conn.PreSendModel(u.app.ID(), name, net, partial); err != nil {
			return 0, err
		}
		u.pending += net.ModelBytes()
		return net.ModelBytes(), nil
	})
}

func (u *tracedUser) classify(img webapp.Float32Array, rs *reqSpan) (outcome, error) {
	o := outcome{wire: u.pending}
	u.pending = 0
	err := rs.call("webapp.event", func() (int64, error) {
		if err := mlapp.LoadImage(u.app, img); err != nil {
			return 0, err
		}
		u.app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
		return 0, nil
	})
	if err != nil {
		return o, err
	}
	if u.spec.partial() {
		if err := rs.call("webapp.front", func() (int64, error) { return 0, u.app.Step() }); err != nil {
			return o, err
		}
	}
	ev, ok := u.app.PopEvent()
	if !ok {
		return o, errors.New("no event to offload")
	}
	var snap *snapshot.Snapshot
	err = rs.call("snapshot.capture", func() (int64, error) {
		var err error
		snap, err = snapshot.Capture(u.app, snapshot.Options{
			DefaultModelPolicy: snapshot.ModelSpecOnly,
			ModelPolicies:      u.policies,
			PendingEvent:       &ev,
		})
		return 0, err
	})
	if err != nil {
		return o, err
	}
	var result *snapshot.Snapshot
	if u.spec.delta && u.base != nil {
		result, err = u.offloadDelta(snap, rs, &o)
		if err != nil {
			// The server lost the base: retry as a full snapshot, as the
			// offloader does.
			o.deltaFallbacks++
			result = nil
		}
	}
	if result == nil {
		if result, err = u.offloadFull(snap, rs, &o); err != nil {
			return o, err
		}
	}
	if u.spec.delta {
		u.base = result
	}
	o.label, o.scores = mlapp.Result(u.app), scoresOf(u.app)
	return o, nil
}

func (u *tracedUser) offloadFull(snap *snapshot.Snapshot, rs *reqSpan, o *outcome) (*snapshot.Snapshot, error) {
	var enc []byte
	err := rs.call("snapshot.encode", func() (int64, error) {
		var err error
		enc, err = snap.Encode()
		return int64(len(enc)), err
	})
	if err != nil {
		return nil, err
	}
	body, err := u.roundTrip(rs, o, u.conn.OffloadSnapshot, enc)
	if err != nil {
		return nil, err
	}
	var result *snapshot.Snapshot
	err = rs.call("snapshot.decode", func() (int64, error) {
		var err error
		result, err = snapshot.Decode(body)
		return int64(len(body)), err
	})
	if err != nil {
		return nil, err
	}
	err = rs.call("snapshot.apply", func() (int64, error) {
		return 0, result.ApplyTo(u.app, snapshot.RestoreOptions{})
	})
	return result, err
}

func (u *tracedUser) offloadDelta(snap *snapshot.Snapshot, rs *reqSpan, o *outcome) (*snapshot.Snapshot, error) {
	var enc []byte
	err := rs.call("snapshot.encode", func() (int64, error) {
		d, err := snapshot.Diff(u.base, snap)
		if err != nil {
			return 0, err
		}
		enc, err = d.Encode()
		return int64(len(enc)), err
	})
	if err != nil {
		return nil, err
	}
	body, err := u.roundTrip(rs, o, u.conn.OffloadSnapshotDelta, enc)
	if err != nil {
		return nil, err
	}
	var rd *snapshot.Delta
	err = rs.call("snapshot.decode", func() (int64, error) {
		var err error
		rd, err = snapshot.DecodeDelta(body)
		return int64(len(body)), err
	})
	if err != nil {
		return nil, err
	}
	var result *snapshot.Snapshot
	err = rs.call("snapshot.apply", func() (int64, error) {
		var err error
		if result, err = rd.Apply(snap); err != nil {
			return 0, err
		}
		return 0, result.ApplyTo(u.app, snapshot.RestoreOptions{})
	})
	if err == nil {
		o.deltas++
	}
	return result, err
}

// roundTrip runs one offload RPC in the client.roundtrip span and charges
// its request (wire) and result bytes to the outcome.
func (u *tracedUser) roundTrip(rs *reqSpan, o *outcome,
	rpc func(appID string, enc []byte, compress bool) ([]byte, int64, error), enc []byte) ([]byte, error) {
	var (
		body []byte
		sent int64
	)
	err := rs.call("client.roundtrip", func() (int64, error) {
		var err error
		body, sent, err = rpc(u.app.ID(), enc, false)
		return sent + int64(len(body)), err
	})
	if err != nil {
		return nil, err
	}
	o.offloads++
	o.wire += sent + int64(len(body))
	return body, nil
}

func scoresOf(app *webapp.App) []float32 {
	v, _ := app.Global(mlapp.GlobalScores)
	arr, _ := v.(webapp.Float32Array)
	return arr
}

// refPool is the seeded image pool with reference outputs computed by a
// local ExecPlan at the workload's precision.
type refPool struct {
	images []webapp.Float32Array
	labels []string
	scores [][]float32
}

func newRefPool(model *nn.Network, prec nn.Precision, n int, seed int64) (*refPool, error) {
	shape := model.InputShape()
	plan, err := model.PlanPrec(prec, shape...)
	if err != nil {
		return nil, err
	}
	vol := 1
	for _, d := range shape {
		vol *= d
	}
	p := &refPool{}
	for i := 0; i < n; i++ {
		img := mlapp.SyntheticImage(vol, uint64(seed)*1_000_003+uint64(i))
		in, err := tensor.FromSlice(append([]float32(nil), img...), shape...)
		if err != nil {
			return nil, err
		}
		out, err := plan.Forward(in)
		if err != nil {
			return nil, fmt.Errorf("reference forward: %w", err)
		}
		idx, _ := out.MaxIndex()
		p.images = append(p.images, img)
		p.labels = append(p.labels, fmt.Sprintf("class %d", idx))
		p.scores = append(p.scores, append([]float32(nil), out.Data()...))
	}
	return p, nil
}

// check reports whether an inference on image i produced the reference
// label and bit-identical scores.
func (p *refPool) check(i int, o outcome) bool {
	if o.label != p.labels[i] || len(o.scores) != len(p.scores[i]) {
		return false
	}
	for j, v := range o.scores {
		if math.Float32bits(v) != math.Float32bits(p.scores[i][j]) {
			return false
		}
	}
	return true
}
