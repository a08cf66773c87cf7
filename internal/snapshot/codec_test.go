package snapshot

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"websnap/internal/webapp"
)

// The value codec must reproduce encoding/json exactly. The helpers below
// are the encoding/json value path the codec replaced, kept as the test
// oracle: wireEncode is json.Marshal(toWire(v)), wireDecode is
// json.Unmarshal followed by fromWire.

func wireEncode(v webapp.Value) (string, error) {
	data, err := json.Marshal(toWire(v))
	return string(data), err
}

func wireDecode(body string) (webapp.Value, error) {
	var raw any
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		return nil, err
	}
	return fromWire(raw)
}

func toWire(v webapp.Value) any {
	switch t := v.(type) {
	case webapp.Float32Array:
		return map[string]any{f32Key: []float32(t)}
	case []webapp.Value:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = toWire(e)
		}
		return out
	case map[string]webapp.Value:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = toWire(e)
		}
		return out
	default:
		return t
	}
}

func fromWire(v any) (webapp.Value, error) {
	switch t := v.(type) {
	case nil, bool, float64, string:
		return t, nil
	case []any:
		out := make([]webapp.Value, len(t))
		for i, e := range t {
			n, err := fromWire(e)
			if err != nil {
				return nil, err
			}
			out[i] = n
		}
		return out, nil
	case map[string]any:
		if raw, ok := t[f32Key]; ok && len(t) == 1 {
			arr, ok := raw.([]any)
			if !ok {
				return nil, fmt.Errorf("%s marker is not an array", f32Key)
			}
			fa := make(webapp.Float32Array, len(arr))
			for i, e := range arr {
				f, ok := e.(float64)
				if !ok {
					return nil, fmt.Errorf("%s element %d is not a number", f32Key, i)
				}
				fa[i] = float32(f)
			}
			return fa, nil
		}
		out := make(map[string]webapp.Value, len(t))
		for k, e := range t {
			n, err := fromWire(e)
			if err != nil {
				return nil, err
			}
			out[k] = n
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unsupported wire type %T", v)
	}
}

// encodeValue renders one value with the codec.
func encodeValue(v webapp.Value) (string, error) {
	var e encoder
	if err := e.value(v); err != nil {
		return "", err
	}
	return string(e.buf), nil
}

// float32Edges are the values where float32 text formatting changes
// shape: signed zeros, subnormals, both sides of the 1e-6 and 1e21
// notation cutoffs, the extremes, and integral values.
var float32Edges = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, 1.17549435e-38,
	1e-6, math.Nextafter32(1e-6, 0), math.Nextafter32(1e-6, 1), -1e-6, 9.99999e-7,
	1e21, math.Nextafter32(1e21, 0), math.Nextafter32(1e21, float32(math.Inf(1))), -1e21, 1e20,
	math.MaxFloat32, -math.MaxFloat32, 1, -1, 2, 100, 1e7, 16777216, 16777217, 123456789,
	0.1, 1.0 / 3, 3.14159265, 1e-9, 1e-10, 1.5e-45, 6.5e36,
}

// randValue draws a random canonical value tree.
func randValue(r *rand.Rand, depth int) webapp.Value {
	n := 7
	if depth >= 4 {
		n = 5 // leaves only
	}
	switch r.Intn(n) {
	case 0:
		return nil
	case 1:
		return r.Intn(2) == 0
	case 2:
		return randFloat64(r)
	case 3:
		return randString(r)
	case 4:
		return randFloat32s(r)
	case 5:
		out := make([]webapp.Value, r.Intn(5))
		for i := range out {
			out[i] = randValue(r, depth+1)
		}
		return out
	default:
		out := make(map[string]webapp.Value)
		for i := r.Intn(5); i > 0; i-- {
			out[randString(r)] = randValue(r, depth+1)
		}
		if _, ok := out[f32Key]; ok && len(out) == 1 {
			out["x"] = nil // a bare marker map is not encodable
		}
		return out
	}
}

func randFloat64(r *rand.Rand) float64 {
	switch r.Intn(5) {
	case 0:
		return float64(r.Intn(2000) - 1000)
	case 1:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
	case 2:
		return []float64{0, math.Copysign(0, -1), 1e-6, 1e21, math.MaxFloat64,
			math.SmallestNonzeroFloat64, 5e-324, 1e-7, 9.999999e20}[r.Intn(9)]
	default:
		return math.Float64frombits(r.Uint64()&^(0x7ff<<52) | uint64(r.Intn(0x7ff))<<52)
	}
}

func randFloat32s(r *rand.Rand) webapp.Float32Array {
	out := make(webapp.Float32Array, r.Intn(40))
	for i := range out {
		out[i] = randFloat32(r)
	}
	return out
}

func randFloat32(r *rand.Rand) float32 {
	switch r.Intn(4) {
	case 0:
		return float32Edges[r.Intn(len(float32Edges))]
	case 1:
		return float32(r.NormFloat64())
	case 2:
		return float32(r.NormFloat64() * math.Pow(10, float64(r.Intn(77)-40)))
	default:
		// Any finite bit pattern.
		return math.Float32frombits(r.Uint32()&^(0xff<<23) | uint32(r.Intn(0xff))<<23)
	}
}

// randString mixes plain text with everything encoding/json escapes:
// quotes, backslashes, control bytes, HTML characters, U+2028/U+2029,
// invalid UTF-8 and multi-byte runes.
func randString(r *rand.Rand) string {
	pieces := []string{"a", "feature", " ", "\"", "\\", "/", "\n", "\t", "\r", "\b", "\f", "\x00",
		"\x1f", "\x7f", "<", ">", "&", "\u2028", "\u2029", "é", "日本", "😀", "\xff", "\xc3",
		"\xed\xa0\x80", "__f32__", "\ufffd", "'"}
	var b strings.Builder
	for i := r.Intn(6); i > 0; i-- {
		b.WriteString(pieces[r.Intn(len(pieces))])
	}
	return b.String()
}

// bitEqual compares value trees with floats compared by bit pattern.
func bitEqual(a, b webapp.Value) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case webapp.Float32Array:
		y, ok := b.(webapp.Float32Array)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
				return false
			}
		}
		return true
	case []webapp.Value:
		y, ok := b.([]webapp.Value)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !bitEqual(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]webapp.Value:
		y, ok := b.(map[string]webapp.Value)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !bitEqual(v, w) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

func TestEncodeMatchesEncodingJSON(t *testing.T) {
	check := func(v webapp.Value) {
		t.Helper()
		want, err := wireEncode(v)
		if err != nil {
			t.Fatalf("oracle failed on %#v: %v", v, err)
		}
		got, err := encodeValue(v)
		if err != nil {
			t.Fatalf("encode %#v: %v", v, err)
		}
		if got != want {
			t.Fatalf("encoding diverged from encoding/json\n got %s\nwant %s", got, want)
		}
	}
	check(webapp.Float32Array(float32Edges))
	for _, f := range float32Edges {
		check(webapp.Float32Array{f, -f})
		check(float64(f))
	}
	check(webapp.Float32Array(nil))
	check(webapp.Float32Array{})
	check([]webapp.Value(nil))
	check(map[string]webapp.Value(nil))
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 3000; i++ {
		check(randValue(r, 0))
	}
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, v := range []webapp.Value{
		nan, inf, -inf,
		webapp.Float32Array{1, float32(nan)},
		webapp.Float32Array{float32(inf)},
		webapp.Float32Array{2, float32(-inf)},
		[]webapp.Value{1.0, map[string]webapp.Value{"x": nan}},
	} {
		if _, err := wireEncode(v); err == nil {
			t.Errorf("oracle accepted %v", v)
		}
		if _, err := encodeValue(v); err == nil {
			t.Errorf("codec accepted %v", v)
		}
		s := &Snapshot{AppID: "a", CodeHash: "c", Globals: map[string]webapp.Value{"x": v}}
		if _, err := s.Hash(); err == nil {
			t.Errorf("Hash accepted %v", v)
		}
	}
}

// A map whose only key is the marker would read back as a Float32Array,
// so the codec refuses it rather than corrupt the value.
func TestEncodeRejectsBareMarkerMap(t *testing.T) {
	v := map[string]webapp.Value{f32Key: []webapp.Value{1.0}}
	if _, err := encodeValue(v); !errors.Is(err, ErrReservedKey) {
		t.Errorf("err = %v, want ErrReservedKey", err)
	}
}

// checkDecodeParity decodes body with the codec and the oracle and fails
// unless both reject, or both accept with bit-identical values. The one
// intended difference: the oracle turns marker elements beyond float32
// range into ±Inf, which the codec rejects.
func checkDecodeParity(t *testing.T, body string) {
	t.Helper()
	got, err := decodeValue(body)
	want, werr := wireDecode(body)
	if werr == nil && hasInf(want) {
		if err == nil {
			t.Fatalf("codec accepted float32 overflow in %q", body)
		}
		return
	}
	if (err == nil) != (werr == nil) {
		t.Fatalf("accept/reject differs on %q: codec err %v, oracle err %v", body, err, werr)
	}
	if err == nil && !bitEqual(got, want) {
		t.Fatalf("decoded values differ on %q:\n got %#v\nwant %#v", body, got, want)
	}
}

func hasInf(v webapp.Value) bool {
	switch t := v.(type) {
	case webapp.Float32Array:
		for _, f := range t {
			if math.IsInf(float64(f), 0) {
				return true
			}
		}
	case []webapp.Value:
		for _, e := range t {
			if hasInf(e) {
				return true
			}
		}
	case map[string]webapp.Value:
		for _, e := range t {
			if hasInf(e) {
				return true
			}
		}
	}
	return false
}

// decodeParitySeeds are hand-written bodies around the marker and the
// edges of JSON syntax.
var decodeParitySeeds = []string{
	`{"__f32__":[1,2,3]}`, ` { "__f32__" : [ 1 , -2.5e-3 , 0 ] } `, `{"__f32__":[]}`, `{"__f32__":[ ]}`,
	`{"__f32__":null}`, `{"__f32__":[1,"a"]}`, `{"__f32__":[1],"x":2}`, `{"x":2,"__f32__":[1]}`,
	`{"__f32__":[1],"__f32__":[2]}`, `{"\u005f_f32__":[7]}`, `{"__f32__":[[1]]}`, `{"__f32__":[1,]}`,
	`{"__f32__":[1e39]}`, `{"__f32__":[-1e39]}`, `{"__f32__":[3.4028235e38]}`, `{"__f32__":[3.4028236e38]}`,
	`{"__f32__":[1e999]}`, `{"__f32__":[1e-999]}`, `{"__f32__":[1e39],"x":1}`, `{"__f32__":{"a":1}}`,
	`{"__f32__":[01]}`, `{"__f32__":[1.]}`, `{"__f32__":[.5]}`, `{"__f32__":[+1]}`, `{"__f32__":[1e]}`,
	`{"__f32__":[1E+2]}`, `{"__f32__":[-0]}`, `{"__f32__":[-]}`, `{"__f32__":[1]`, `{"__f32__":[1]}x`,
	`{"__f32__":[1] ]}`, `{"__f32__"}`, `{"__f32__":}`, `{"__f32__" [1]}`,
	``, ` `, `null`, `true`, `false`, `nul`, `truex`, `0`, `-0`, `01`, `1.5e300`, `1e400`, `-`, `2.`,
	`"abc"`, `"a\"b\\c\/d\b\f\n\r\t"`, `"\u00e9\u2028\ud83d\ude00"`, `"\ud800"`, `"\ud800x"`,
	`"\udc00\ud800"`, `"\ud800\u0041"`, `"\u12"`, `"\x"`, `"\'"`, "\"\x01\"", "\"\xff\xfe\"", "\"é\"",
	`"unterminated`, `[1,2`, `[1 2]`, `[,]`, `[]`, `[ ]`, `{}`, `{ }`, `{"a":1,}`, `{"a" 1}`, `{1:2}`,
	`{"a":[{"b":{"__f32__":[0.5]}}]}`, "[1]\x00", "\t[1]\r\n", `[1]]`, `{"a":1}}`,
	strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	strings.Repeat(`{"a":`, 9999) + `{"__f32__":[1]}` + strings.Repeat("}", 9999),
	strings.Repeat("[", 9999) + `{"__f32__":[1]}` + strings.Repeat("]", 9999),
	strings.Repeat("[", 9998) + `{"__f32__":[1]}` + strings.Repeat("]", 9998),
}

func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, body := range decodeParitySeeds {
		checkDecodeParity(t, body)
	}
	// Encodings of random trees, whole and damaged: truncated, a byte
	// dropped, or a byte replaced by a structural character.
	r := rand.New(rand.NewSource(34))
	junk := []byte(`{}[],:"\ 0-.e+tn`)
	for i := 0; i < 3000; i++ {
		body, err := encodeValue(randValue(r, 0))
		if err != nil {
			t.Fatal(err)
		}
		checkDecodeParity(t, body)
		if len(body) == 0 {
			continue
		}
		k := r.Intn(len(body))
		checkDecodeParity(t, body[:k])
		checkDecodeParity(t, body[:k]+body[k+1:])
		checkDecodeParity(t, body[:k]+string(junk[r.Intn(len(junk))])+body[k+1:])
	}
}

// TestDecodeMatchesOnFuzzCorpus replays every value body in the fuzz
// seeds and the checked-in corpus through both decoders.
func TestDecodeMatchesOnFuzzCorpus(t *testing.T) {
	inputs := fuzzSeedWires(t)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, arg := range strings.Split(string(data), "\n") {
			if q, ok := strings.CutPrefix(arg, "[]byte("); ok {
				in, err := strconv.Unquote(strings.TrimSuffix(q, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				inputs = append(inputs, in)
			}
		}
	}
	n := 0
	for _, in := range inputs {
		for _, line := range strings.Split(in, "\n") {
			rest, ok := strings.CutPrefix(line, "var ")
			if !ok {
				continue
			}
			if _, body, ok := strings.Cut(rest, " = "); ok && strings.HasSuffix(body, ";") {
				checkDecodeParity(t, strings.TrimSuffix(body, ";"))
				n++
			}
		}
	}
	if n < 10 {
		t.Fatalf("only %d value bodies found in the fuzz corpus", n)
	}
}

// fuzzSeedWires rebuilds the wire inputs the fuzz targets seed with.
func fuzzSeedWires(t *testing.T) []string {
	t.Helper()
	app, _ := inferenceApp(t)
	snap, err := Capture(app, Options{DefaultModelPolicy: ModelOmit})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return append(append([]string{string(wire)}, snapshotOverflowSeeds...), deltaOverflowSeeds...)
}

// FuzzDecodeValue checks the codec against the encoding/json oracle on
// arbitrary bodies.
func FuzzDecodeValue(f *testing.F) {
	for _, s := range decodeParitySeeds {
		if len(s) < 1000 {
			f.Add(s)
		}
	}
	f.Fuzz(func(t *testing.T, body string) {
		checkDecodeParity(t, body)
	})
}

func TestDecodeLinesSplitsLikeScanner(t *testing.T) {
	for _, in := range []string{"h", "h\n", "h\r\n", "h\na\n\nb", "h\r\na\r\r\n\r\nb\r", "h\n\n\n",
		"x\nh", "\nh", "", "h\na\rb\n"} {
		var want []string
		sc := bufio.NewScanner(strings.NewReader(in))
		for sc.Scan() {
			want = append(want, sc.Text())
		}
		var got []string
		err := decodeLines([]byte(in), "h", func(line string) error {
			got = append(got, line)
			return nil
		})
		if len(want) == 0 || want[0] != "h" {
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%q: err = %v, want missing header", in, err)
			}
			continue
		}
		var nonEmpty []string
		for _, l := range want[1:] {
			if l != "" {
				nonEmpty = append(nonEmpty, l)
			}
		}
		if err != nil || fmt.Sprint(got) != fmt.Sprint(nonEmpty) {
			t.Errorf("%q: lines %q (err %v), want %q", in, got, err, nonEmpty)
		}
	}
}

func TestParseNumberMatchesStrconv(t *testing.T) {
	toks := []string{"0", "-0", "0.0", "-0.000", "0e5", "-0e-400", "1", "-1", "0.1", "10", "100.00",
		"1e22", "1e23", "1e-22", "1e-23", "15e21", "1E+2", "2.5E-3", "9007199254740992",
		"9007199254740993", "-9007199254740993", "1234567890123456789", "12345678901234567890",
		"0.000000000000000000001", "0.0000000000000000000001", "1.7976931348623157e308",
		"1e400", "-1e400", "5e-324", "1e-400", "123.456e-5", "4.9E+2", "3.4028235e38", "1e39"}
	r := rand.New(rand.NewSource(78))
	for i := 0; i < 20000; i++ {
		f32 := randFloat32(r)
		f := randFloat64(r)
		prec := r.Intn(20) - 1
		toks = append(toks,
			strconv.FormatFloat(f, 'f', prec, 64),
			strconv.FormatFloat(f, 'e', prec, 64),
			strconv.FormatFloat(f, 'e', -1, 64),
			strconv.FormatFloat(float64(f32), 'f', -1, 32),
			strconv.FormatFloat(float64(f32), 'e', -1, 32))
	}
	for _, tok := range toks {
		want, werr := strconv.ParseFloat(tok, 64)
		got, err := parseNumber(tok)
		if (err == nil) != (werr == nil) || math.Float64bits(got) != math.Float64bits(want) && werr == nil {
			t.Fatalf("parseNumber(%q) = %v, %v; strconv gives %v, %v", tok, got, err, want, werr)
		}
	}
}

func TestDecodeRejectsFloat32Overflow(t *testing.T) {
	// Each seed decodes once its element is back in float32 range.
	inRange := strings.NewReplacer("e39", "", "e38", "")
	for _, wire := range snapshotOverflowSeeds {
		if _, err := Decode([]byte(wire)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt for\n%s", err, wire)
		}
		if _, err := Decode([]byte(inRange.Replace(wire))); err != nil {
			t.Errorf("in-range variant: %v", err)
		}
	}
	for _, wire := range deltaOverflowSeeds {
		if _, err := DecodeDelta([]byte(wire)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt for\n%s", err, wire)
		}
		if _, err := DecodeDelta([]byte(inRange.Replace(wire))); err != nil {
			t.Errorf("in-range variant: %v", err)
		}
	}
}

// TestHashEqualIffEncodingEqual: the raw-bits digest identifies exactly
// the model-less encodings, including pairs that differ only in one
// float bit or in the sign of a zero.
func TestHashEqualIffEncodingEqual(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	snap := func(globals map[string]webapp.Value, pending webapp.Value) *Snapshot {
		s := &Snapshot{AppID: "app", CodeHash: "code", Globals: globals,
			DOM: &webapp.Node{ID: "root", Tag: "div"}}
		if pending != nil {
			s.Pending = []webapp.Event{{Target: "t", Type: "go", Payload: pending}}
		}
		return s
	}
	perturb := func(v webapp.Value) webapp.Value {
		v = webapp.DeepCopy(v)
		if fa, ok := v.(webapp.Float32Array); ok && len(fa) > 0 {
			i := r.Intn(len(fa))
			switch r.Intn(3) {
			case 0:
				fa[i] = math.Float32frombits(math.Float32bits(fa[i]) ^ 1)
			case 1:
				fa[i] = -fa[i]
			default:
				fa[i] = fa[(i+1)%len(fa)]
			}
		}
		return v
	}
	equalPairs := 0
	for i := 0; i < 2000; i++ {
		ga := map[string]webapp.Value{"a": randValue(r, 1), "f": randFloat32s(r)}
		gb := map[string]webapp.Value{"a": ga["a"], "f": ga["f"]}
		switch r.Intn(4) {
		case 0:
			gb["f"] = perturb(ga["f"])
		case 1:
			gb["a"] = randValue(r, 1)
		case 2:
			gb["a"], gb["f"] = ga["f"], ga["a"]
		}
		var pa, pb webapp.Value
		if r.Intn(2) == 0 {
			pa = randFloat32s(r)
			pb = pa
			if r.Intn(2) == 0 {
				pb = perturb(pa)
			}
		}
		a, b := snap(ga, pa), snap(gb, pb)
		ea, erra := a.Encode()
		eb, errb := b.Encode()
		ha, herra := a.Hash()
		hb, herrb := b.Hash()
		if (erra == nil) != (herra == nil) || (errb == nil) != (herrb == nil) {
			t.Fatalf("Encode and Hash disagree on failure: %v/%v, %v/%v", erra, herra, errb, herrb)
		}
		if erra != nil || errb != nil {
			continue
		}
		if (string(ea) == string(eb)) != (ha == hb) {
			t.Fatalf("encodings equal = %v but hashes equal = %v\n%s\n%s",
				string(ea) == string(eb), ha == hb, ea, eb)
		}
		if ha == hb {
			equalPairs++
		}
	}
	if equalPairs == 0 {
		t.Fatal("no equal pairs drawn")
	}
	// Models never reach the digest.
	a := snap(map[string]webapp.Value{"x": 1.0}, nil)
	b := *a
	b.Models = []ModelState{{Name: "m", Weights: []byte{1, 2, 3}}}
	ha, _ := a.Hash()
	if hb, _ := b.Hash(); ha != hb {
		t.Error("models changed the hash")
	}
}

// TestDecodedNamesDoNotPinLine: nothing a decoded global holds may point
// into the scanned line — a substring key would keep the whole line,
// feature text included, alive for as long as the state is stored.
func TestDecodedNamesDoNotPinLine(t *testing.T) {
	line := `var feature = {"__f32__":[1,2,3],"label":"cat","nested":{"deep":["x"]}};`
	within := func(s string) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(line)))
		return len(s) > 0 && p >= lo && p < lo+uintptr(len(line))
	}
	var walk func(v webapp.Value) bool
	walk = func(v webapp.Value) bool {
		switch t := v.(type) {
		case string:
			return within(t)
		case []webapp.Value:
			for _, e := range t {
				if walk(e) {
					return true
				}
			}
		case map[string]webapp.Value:
			for k, e := range t {
				if within(k) || walk(e) {
					return true
				}
			}
		}
		return false
	}
	s := &Snapshot{Globals: map[string]webapp.Value{}}
	if err := s.decodeLine(line); err != nil {
		t.Fatal(err)
	}
	d := &Delta{SetGlobals: map[string]webapp.Value{}}
	if err := d.decodeLine(line); err != nil {
		t.Fatal(err)
	}
	for _, globals := range []map[string]webapp.Value{s.Globals, d.SetGlobals} {
		if len(globals) != 1 {
			t.Fatalf("globals = %v", globals)
		}
		if walk(globals) {
			t.Error("a decoded global name or string points into the scanned line")
		}
	}
}

// benchSink keeps benchmarked results alive.
var benchSink any

// BenchmarkCodec measures Encode, Decode and Hash of a snapshot holding one
// feature array.
func BenchmarkCodec(b *testing.B) {
	// The feature arrays of the benchmark workloads: TinyNet's 3x16x16
	// image, AgeNet's 3x227x227 input and GoogLeNet's 64x56x56 feature map.
	for _, n := range []int{768, 154587, 200704} {
		r := rand.New(rand.NewSource(int64(n)))
		fa := make(webapp.Float32Array, n)
		for i := range fa {
			fa[i] = float32(r.NormFloat64())
		}
		s := &Snapshot{AppID: "bench", CodeHash: "code", Globals: map[string]webapp.Value{"feature": fa},
			DOM: &webapp.Node{ID: "root", Tag: "div"}}
		wire, err := s.Encode()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("encode/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			for i := 0; i < b.N; i++ {
				if benchSink, err = s.Encode(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("decode/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			for i := 0; i < b.N; i++ {
				if benchSink, err = Decode(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("hash/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			for i := 0; i < b.N; i++ {
				if benchSink, err = s.Hash(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
