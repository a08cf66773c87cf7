package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"websnap/internal/webapp"
)

// This file implements the paper's stated future work (§VI): "how to
// simplify the snapshot creation/transmission/restoration for future
// offloading using the data and code left at the server from the first
// offloading". A Delta carries only the state that changed relative to a
// base snapshot both sides already hold; repeated offloads therefore ship
// kilobytes instead of re-serializing the full heap.

// deltaHeader is the first line of an encoded delta.
const deltaHeader = "// websnap-delta v1"

// Hash returns the snapshot's content identity: a digest of its
// model-less encoding (model placement differs between client and
// server; the synchronized *state* is what deltas are relative to). The
// encoding is streamed into the digest with each Float32Array as its raw
// bits rather than its text, so two hashes are equal exactly when the two
// model-less encodings are, without formatting a single float.
func (s *Snapshot) Hash() (string, error) {
	e := hashers.Get().(*encoder)
	defer hashers.Put(e)
	e.buf = e.buf[:0]
	e.sum.Reset()
	if err := e.snapshot(s, false); err != nil {
		return "", err
	}
	e.sum.Write(e.buf)
	var sum [sha256.Size]byte
	return hex.EncodeToString(e.sum.Sum(sum[:0])[:16]), nil
}

// hashers recycles Hash's digest and chunk buffer: every delta round trip
// hashes several snapshots, most of them small.
var hashers = sync.Pool{New: func() any {
	return &encoder{buf: make([]byte, 0, 2*hashChunk), sum: sha256.New()}
}}

// Delta is the difference between two snapshots of the same app.
type Delta struct {
	AppID    string
	CodeHash string
	// BaseHash identifies the snapshot this delta applies to.
	BaseHash string
	// SetGlobals holds new or changed globals.
	SetGlobals map[string]webapp.Value
	// DelGlobals lists removed globals.
	DelGlobals []string
	// DOM is the full new tree when it changed, nil when unchanged.
	// (A finer node-level diff is possible; DOM trees are tiny next to
	// feature data, so whole-tree replacement keeps the format simple.)
	DOM *webapp.Node
	// BindingsChanged signals that Bindings replaces the base's set.
	BindingsChanged bool
	Bindings        []webapp.Binding
	// Pending always replaces the base's pending events.
	Pending []webapp.Event
}

// Diff computes cur − base. Both snapshots must belong to the same app and
// code bundle. Models are ignored: deltas never carry them (they are
// already at the receiver).
func Diff(base, cur *Snapshot) (*Delta, error) {
	if base.AppID != cur.AppID || base.CodeHash != cur.CodeHash {
		return nil, fmt.Errorf("snapshot: diff across apps (%s/%s vs %s/%s)",
			base.AppID, base.CodeHash, cur.AppID, cur.CodeHash)
	}
	baseHash, err := base.Hash()
	if err != nil {
		return nil, err
	}
	d := &Delta{
		AppID:      cur.AppID,
		CodeHash:   cur.CodeHash,
		BaseHash:   baseHash,
		SetGlobals: make(map[string]webapp.Value),
	}
	for name, v := range cur.Globals {
		if old, ok := base.Globals[name]; !ok || !webapp.DeepEqual(old, v) {
			d.SetGlobals[name] = webapp.DeepCopy(v)
		}
	}
	for name := range base.Globals {
		if _, ok := cur.Globals[name]; !ok {
			d.DelGlobals = append(d.DelGlobals, name)
		}
	}
	sort.Strings(d.DelGlobals)
	if !base.DOM.Equal(cur.DOM) {
		d.DOM = cur.DOM.Clone()
	}
	if !bindingsEqual(base.Bindings, cur.Bindings) {
		d.BindingsChanged = true
		d.Bindings = append([]webapp.Binding(nil), cur.Bindings...)
	}
	for _, ev := range cur.Pending {
		d.Pending = append(d.Pending, webapp.Event{
			Target: ev.Target, Type: ev.Type, Payload: webapp.DeepCopy(ev.Payload),
		})
	}
	return d, nil
}

func bindingsEqual(a, b []webapp.Binding) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Apply reconstructs the full snapshot d was diffed from, given the same
// base. The base's hash must match d.BaseHash.
func (d *Delta) Apply(base *Snapshot) (*Snapshot, error) {
	baseHash, err := base.Hash()
	if err != nil {
		return nil, err
	}
	if baseHash != d.BaseHash {
		return nil, fmt.Errorf("%w: delta base %s, snapshot %s", ErrBaseMismatch, d.BaseHash, baseHash)
	}
	out := &Snapshot{
		AppID:    d.AppID,
		CodeHash: d.CodeHash,
		Globals:  make(map[string]webapp.Value, len(base.Globals)+len(d.SetGlobals)),
		DOM:      base.DOM.Clone(),
		Bindings: append([]webapp.Binding(nil), base.Bindings...),
	}
	for name, v := range base.Globals {
		out.Globals[name] = webapp.DeepCopy(v)
	}
	for name, v := range d.SetGlobals {
		out.Globals[name] = webapp.DeepCopy(v)
	}
	for _, name := range d.DelGlobals {
		delete(out.Globals, name)
	}
	if d.DOM != nil {
		out.DOM = d.DOM.Clone()
	}
	if d.BindingsChanged {
		out.Bindings = append([]webapp.Binding(nil), d.Bindings...)
	}
	for _, ev := range d.Pending {
		out.Pending = append(out.Pending, webapp.Event{
			Target: ev.Target, Type: ev.Type, Payload: webapp.DeepCopy(ev.Payload),
		})
	}
	return out, nil
}

// Encode renders the delta in the same one-statement-per-line style as full
// snapshots:
//
//	// websnap-delta v1
//	var __appID = "...";
//	var __codeHash = "...";
//	var __baseHash = "...";
//	var feature = {"__f32__":[...]};
//	__delete("oldGlobal");
//	__dom({...});            (only when the DOM changed)
//	__bindings([{...}]);     (only when bindings changed)
//	__dispatch({...});
func (d *Delta) Encode() ([]byte, error) {
	hint := len(deltaHeader) + 1 + len(d.AppID) + len(d.CodeHash) + len(d.BaseHash) + 96
	for name, v := range d.SetGlobals {
		hint += len(name) + 12 + wireSizeHint(v)
	}
	e := encoder{buf: make([]byte, 0, hint)}
	e.buf = append(e.buf, deltaHeader+"\n"...)
	e.stringVar("__appID", d.AppID)
	e.stringVar("__codeHash", d.CodeHash)
	e.stringVar("__baseHash", d.BaseHash)
	for _, name := range sortedGlobalNames(d.SetGlobals) {
		if err := checkReserved(d.SetGlobals[name]); err != nil {
			return nil, fmt.Errorf("snapshot: delta global %q: %w", name, err)
		}
		if err := e.valueVar(name, d.SetGlobals[name]); err != nil {
			return nil, fmt.Errorf("snapshot: delta global %q: %w", name, err)
		}
	}
	for _, name := range d.DelGlobals {
		e.line("__delete", appendString(nil, name))
	}
	if d.DOM != nil {
		dom, err := webapp.MarshalDOM(d.DOM)
		if err != nil {
			return nil, err
		}
		e.line("__dom", dom)
	}
	if d.BindingsChanged {
		enc, err := json.Marshal(d.Bindings)
		if err != nil {
			return nil, err
		}
		e.line("__bindings", enc)
	}
	for _, ev := range d.Pending {
		if err := e.dispatch(ev); err != nil {
			return nil, err
		}
	}
	return e.buf, nil
}

// DecodeDelta parses a delta produced by Encode.
func DecodeDelta(data []byte) (*Delta, error) {
	d := &Delta{SetGlobals: make(map[string]webapp.Value)}
	if err := decodeLines(data, deltaHeader, d.decodeLine); err != nil {
		return nil, err
	}
	if d.AppID == "" || d.CodeHash == "" || d.BaseHash == "" {
		return nil, fmt.Errorf("%w: delta missing identity fields", ErrCorrupt)
	}
	return d, nil
}

func (d *Delta) decodeLine(line string) error {
	switch {
	case strings.HasPrefix(line, "var "):
		rest := strings.TrimPrefix(line, "var ")
		eq := strings.Index(rest, " = ")
		if eq < 0 || !strings.HasSuffix(rest, ";") {
			return fmt.Errorf("malformed var statement")
		}
		// A map key sliced from the line would pin the whole line in memory.
		name := strings.Clone(rest[:eq])
		body := rest[eq+3 : len(rest)-1]
		switch name {
		case "__appID", "__codeHash", "__baseHash":
			var v string
			if err := json.Unmarshal([]byte(body), &v); err != nil {
				return err
			}
			switch name {
			case "__appID":
				d.AppID = v
			case "__codeHash":
				d.CodeHash = v
			default:
				d.BaseHash = v
			}
			return nil
		default:
			v, err := decodeValue(body)
			if err != nil {
				return fmt.Errorf("global %q: %w", name, err)
			}
			d.SetGlobals[name] = v
			return nil
		}
	case strings.HasPrefix(line, "__delete("):
		body, err := callBody(line, "__delete")
		if err != nil {
			return err
		}
		var name string
		if err := json.Unmarshal([]byte(body), &name); err != nil {
			return err
		}
		d.DelGlobals = append(d.DelGlobals, name)
		return nil
	case strings.HasPrefix(line, "__dom("):
		body, err := callBody(line, "__dom")
		if err != nil {
			return err
		}
		dom, err := webapp.UnmarshalDOM([]byte(body))
		if err != nil {
			return err
		}
		d.DOM = dom
		return nil
	case strings.HasPrefix(line, "__bindings("):
		body, err := callBody(line, "__bindings")
		if err != nil {
			return err
		}
		var bs []webapp.Binding
		if err := json.Unmarshal([]byte(body), &bs); err != nil {
			return err
		}
		d.BindingsChanged = true
		d.Bindings = bs
		return nil
	case strings.HasPrefix(line, "__dispatch("):
		body, err := callBody(line, "__dispatch")
		if err != nil {
			return err
		}
		ev, err := decodeEvent(body)
		if err != nil {
			return err
		}
		d.Pending = append(d.Pending, ev)
		return nil
	default:
		return fmt.Errorf("unrecognized statement %.40q", line)
	}
}
