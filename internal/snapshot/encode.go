package snapshot

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"websnap/internal/nn"
	"websnap/internal/webapp"
)

// header is the first line of every encoded snapshot.
const header = "// websnap-snapshot v1"

// f32Key marks a Float32Array inside the JSON value encoding, standing in
// for JavaScript's `new Float32Array([...])`. It is reserved: captured app
// state must not use it as a map key.
const f32Key = "__f32__"

// Encode renders the snapshot as its textual program form — "the snapshot
// app". One declaration per line:
//
//	// websnap-snapshot v1
//	var __appID = "...";
//	var __codeHash = "...";
//	__model("gnet", {...spec...}, "<base64 weights or empty>");
//	var feature = {"__f32__":[0.12,-1.5,...]};
//	__dom({...});
//	__bind({...});
//	__dispatch({"target":"btn","type":"front_complete"});
//
// Running the snapshot (Restore) rebuilds exactly this state and
// re-dispatches the pending events.
//
// The text is assembled in one buffer pre-sized from the model blob and
// feature-array sizes, so a snapshot dominated by weights or features is
// written with a single allocation.
func (s *Snapshot) Encode() ([]byte, error) {
	e := encoder{buf: make([]byte, 0, s.encodedSizeHint())}
	if err := e.snapshot(s, true); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// snapshot writes the snapshot's statements, the __model lines only when
// models is set.
func (e *encoder) snapshot(s *Snapshot, models bool) error {
	e.buf = append(e.buf, header+"\n"...)
	e.stringVar("__appID", s.AppID)
	e.stringVar("__codeHash", s.CodeHash)
	if models {
		for _, ms := range s.Models {
			spec, err := json.Marshal(ms.Spec)
			if err != nil {
				return fmt.Errorf("snapshot: encode model %q spec: %w", ms.Name, err)
			}
			e.buf = append(e.buf, "__model("...)
			e.buf = appendString(e.buf, ms.Name)
			e.buf = append(e.buf, ", "...)
			e.buf = append(e.buf, spec...)
			e.buf = append(e.buf, ", \""...)
			e.buf = base64.StdEncoding.AppendEncode(e.buf, ms.Weights)
			e.buf = append(e.buf, "\");\n"...)
		}
	}
	for _, name := range sortedGlobalNames(s.Globals) {
		if err := e.valueVar(name, s.Globals[name]); err != nil {
			return fmt.Errorf("snapshot: encode global %q: %w", name, err)
		}
	}
	dom, err := webapp.MarshalDOM(s.DOM)
	if err != nil {
		return err
	}
	e.line("__dom", dom)
	for _, b := range s.Bindings {
		enc, err := json.Marshal(b)
		if err != nil {
			return fmt.Errorf("snapshot: encode binding: %w", err)
		}
		e.line("__bind", enc)
	}
	for _, ev := range s.Pending {
		if err := e.dispatch(ev); err != nil {
			return fmt.Errorf("snapshot: encode event: %w", err)
		}
	}
	return nil
}

// encodedSizeHint estimates the encoded snapshot size so Encode can
// reserve the buffer up front. The dominant terms — base64 model weights
// and textual Float32Array features — are computed exactly or nearly so;
// structural framing is a rough floor (Grow tolerates underestimates, a
// short tail just appends normally).
func (s *Snapshot) encodedSizeHint() int {
	n := len(header) + 1
	n += len(s.AppID) + len(s.CodeHash) + 2*len(`var __codeHash = "";`+"\n")
	for _, ms := range s.Models {
		n += len(`__model(, , "");`+"\n") + len(ms.Name) + 2
		n += base64.StdEncoding.EncodedLen(len(ms.Weights))
		n += 512 // serialized layer spec
	}
	for name, v := range s.Globals {
		n += len(`var  = ;`+"\n") + len(name) + wireSizeHint(v)
	}
	n += 256 // __dom / __bind / __dispatch framing floor
	return n
}

// wireSizeHint estimates the JSON-encoded size of a captured value.
func wireSizeHint(v webapp.Value) int {
	switch t := v.(type) {
	case webapp.Float32Array:
		// {"__f32__":[...]} with ~12 digits plus separator per float.
		return len(f32Key) + 6 + 13*len(t)
	case []webapp.Value:
		n := 2
		for _, e := range t {
			n += wireSizeHint(e) + 1
		}
		return n
	case map[string]webapp.Value:
		n := 2
		for k, e := range t {
			n += len(k) + 4 + wireSizeHint(e)
		}
		return n
	case string:
		return len(t) + 2
	default:
		return 8
	}
}

// Decode parses a textual snapshot produced by Encode.
func Decode(data []byte) (*Snapshot, error) {
	s := &Snapshot{Globals: make(map[string]webapp.Value)}
	if err := decodeLines(data, header, s.decodeLine); err != nil {
		return nil, err
	}
	if s.AppID == "" || s.CodeHash == "" {
		return nil, fmt.Errorf("%w: missing __appID or __codeHash", ErrCorrupt)
	}
	if s.DOM == nil {
		return nil, fmt.Errorf("%w: missing __dom", ErrCorrupt)
	}
	return s, nil
}

// decodeLines checks that data starts with the header line and hands
// every later non-empty line to decode. Lines split as bufio.ScanLines
// splits them: at '\n', with a trailing '\r' dropped. data is copied into
// one string once; the decoders copy whatever they keep, so decoded state
// never pins the input.
func decodeLines(data []byte, header string, decode func(line string) error) error {
	rest := string(data)
	for n := 1; n == 1 || rest != ""; n++ {
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		line = strings.TrimSuffix(line, "\r")
		switch {
		case n == 1:
			if line != header {
				return fmt.Errorf("%w: missing header %q", ErrCorrupt, header)
			}
		case line != "":
			if err := decode(line); err != nil {
				return fmt.Errorf("%w: line %d: %v", ErrCorrupt, n, err)
			}
		}
	}
	return nil
}

// wireEvent is the __dispatch envelope; the payload is parsed by
// decodeValue.
type wireEvent struct {
	Target  string          `json:"target"`
	Type    string          `json:"type"`
	Payload json.RawMessage `json:"payload"`
}

// decodeEvent parses a __dispatch body.
func decodeEvent(body string) (webapp.Event, error) {
	var we wireEvent
	if err := json.Unmarshal([]byte(body), &we); err != nil {
		return webapp.Event{}, err
	}
	ev := webapp.Event{Target: we.Target, Type: we.Type}
	if we.Payload != nil {
		payload, err := decodeValue(string(we.Payload))
		if err != nil {
			return webapp.Event{}, err
		}
		ev.Payload = payload
	}
	return ev, nil
}

func (s *Snapshot) decodeLine(line string) error {
	switch {
	case strings.HasPrefix(line, "var "):
		return s.decodeVar(line)
	case strings.HasPrefix(line, "__model("):
		return s.decodeModel(line)
	case strings.HasPrefix(line, "__dom("):
		body, err := callBody(line, "__dom")
		if err != nil {
			return err
		}
		dom, err := webapp.UnmarshalDOM([]byte(body))
		if err != nil {
			return err
		}
		s.DOM = dom
		return nil
	case strings.HasPrefix(line, "__bind("):
		body, err := callBody(line, "__bind")
		if err != nil {
			return err
		}
		var b webapp.Binding
		if err := json.Unmarshal([]byte(body), &b); err != nil {
			return err
		}
		s.Bindings = append(s.Bindings, b)
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
		s.Pending = append(s.Pending, ev)
		return nil
	default:
		return fmt.Errorf("unrecognized statement %.40q", line)
	}
}

func (s *Snapshot) decodeVar(line string) error {
	rest := strings.TrimPrefix(line, "var ")
	eq := strings.Index(rest, " = ")
	if eq < 0 || !strings.HasSuffix(rest, ";") {
		return fmt.Errorf("malformed var statement")
	}
	// A map key sliced from the line would pin the whole line in memory.
	name := strings.Clone(rest[:eq])
	body := rest[eq+3 : len(rest)-1]
	switch name {
	case "__appID", "__codeHash":
		var v string
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			return err
		}
		if name == "__appID" {
			s.AppID = v
		} else {
			s.CodeHash = v
		}
		return nil
	default:
		v, err := decodeValue(body)
		if err != nil {
			return fmt.Errorf("global %q: %w", name, err)
		}
		s.Globals[name] = v
		return nil
	}
}

func (s *Snapshot) decodeModel(line string) error {
	body, err := callBody(line, "__model")
	if err != nil {
		return err
	}
	dec := json.NewDecoder(strings.NewReader("[" + body + "]"))
	var args []json.RawMessage
	if err := dec.Decode(&args); err != nil || len(args) != 3 {
		return fmt.Errorf("malformed __model arguments: %v", err)
	}
	var ms ModelState
	if err := json.Unmarshal(args[0], &ms.Name); err != nil {
		return err
	}
	if err := json.Unmarshal(args[1], &ms.Spec); err != nil {
		return err
	}
	var blob string
	if err := json.Unmarshal(args[2], &blob); err != nil {
		return err
	}
	if blob != "" {
		ms.Weights, err = base64.StdEncoding.DecodeString(blob)
		if err != nil {
			return fmt.Errorf("model weights: %w", err)
		}
	}
	s.Models = append(s.Models, ms)
	return nil
}

// callBody extracts X from `name(X);`.
func callBody(line, name string) (string, error) {
	if !strings.HasPrefix(line, name+"(") || !strings.HasSuffix(line, ");") {
		return "", fmt.Errorf("malformed %s statement", name)
	}
	return line[len(name)+1 : len(line)-2], nil
}

// checkReserved rejects values that would collide with the Float32Array
// marker encoding.
func checkReserved(v webapp.Value) error {
	switch t := v.(type) {
	case []webapp.Value:
		for _, e := range t {
			if err := checkReserved(e); err != nil {
				return err
			}
		}
	case map[string]webapp.Value:
		for k, e := range t {
			if k == f32Key {
				return fmt.Errorf("%w: %q", ErrReservedKey, f32Key)
			}
			if err := checkReserved(e); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortedGlobalNames(globals map[string]webapp.Value) []string {
	names := make([]string, 0, len(globals))
	for k := range globals {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func encodeWeights(net *nn.Network) ([]byte, error) {
	var buf bytes.Buffer
	if err := net.EncodeWeights(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeWeights(net *nn.Network, blob []byte) error {
	return net.DecodeWeights(bytes.NewReader(blob))
}
