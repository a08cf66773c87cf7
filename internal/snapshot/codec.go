package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"websnap/internal/webapp"
)

// This file is the snapshot value codec: canonical webapp values to and
// from single-line JSON text, with each Float32Array written as the
// {"__f32__":[...]} marker object. The text is byte-for-byte what
// encoding/json produces for the same tree (ES6-style number formatting,
// HTML-safe string escaping, sorted map keys), and the decoder accepts
// exactly the JSON that encoding/json accepts. Typed-array elements are
// formatted and parsed directly between the float32 slice and the line,
// without boxing each element.

// hashChunk is how much text the hashing encoder buffers before feeding
// it to the digest.
const hashChunk = 32 << 10

// f32HashTag opens a Float32Array in the hash stream. Snapshot text never
// contains a NUL byte (encoding/json escapes every control character), so
// the tag cannot be confused with text.
const f32HashTag = 0

// encoder renders snapshot text into buf. With sum set it streams the
// text into the digest instead, and writes each non-nil Float32Array as
// f32HashTag, its length and its raw little-endian float32 bits. Finite
// float32 values and their shortest text are one-to-one, so two hash
// streams are equal exactly when the two texts are.
type encoder struct {
	buf []byte
	sum hash.Hash
}

// spill feeds buffered text to the digest once enough has accumulated.
func (e *encoder) spill() {
	if e.sum != nil && len(e.buf) >= hashChunk {
		e.sum.Write(e.buf)
		e.buf = e.buf[:0]
	}
}

// line appends `prefix(body);\n`.
func (e *encoder) line(prefix string, body []byte) {
	e.buf = append(e.buf, prefix...)
	e.buf = append(e.buf, '(')
	e.buf = append(e.buf, body...)
	e.buf = append(e.buf, ");\n"...)
	e.spill()
}

// stringVar appends `var name = "<json string>";\n`.
func (e *encoder) stringVar(name, value string) {
	e.buf = append(e.buf, "var "...)
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, " = "...)
	e.buf = appendString(e.buf, value)
	e.buf = append(e.buf, ";\n"...)
}

// valueVar appends `var name = <value>;\n`.
func (e *encoder) valueVar(name string, v webapp.Value) error {
	e.buf = append(e.buf, "var "...)
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, " = "...)
	if err := e.value(v); err != nil {
		return err
	}
	e.buf = append(e.buf, ";\n"...)
	e.spill()
	return nil
}

// dispatch appends `__dispatch({"target":...,"type":...,"payload":...});`,
// omitting a nil payload.
func (e *encoder) dispatch(ev webapp.Event) error {
	e.buf = append(e.buf, `__dispatch({"target":`...)
	e.buf = appendString(e.buf, ev.Target)
	e.buf = append(e.buf, `,"type":`...)
	e.buf = appendString(e.buf, ev.Type)
	if ev.Payload != nil {
		e.buf = append(e.buf, `,"payload":`...)
		if err := e.value(ev.Payload); err != nil {
			return err
		}
	}
	e.buf = append(e.buf, "});\n"...)
	e.spill()
	return nil
}

// value appends the JSON text of a canonical value. Types outside the
// value universe (an event payload Normalize could not convert) fall back
// to encoding/json, as they always have.
func (e *encoder) value(v webapp.Value) error {
	switch t := v.(type) {
	case nil:
		e.buf = append(e.buf, "null"...)
	case bool:
		e.buf = strconv.AppendBool(e.buf, t)
	case float64:
		var err error
		if e.buf, err = appendFloat(e.buf, t, 64); err != nil {
			return err
		}
	case string:
		e.buf = appendString(e.buf, t)
	case webapp.Float32Array:
		return e.float32s(t)
	case []webapp.Value:
		e.buf = append(e.buf, '[')
		for i, el := range t {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			if err := e.value(el); err != nil {
				return err
			}
		}
		e.buf = append(e.buf, ']')
	case map[string]webapp.Value:
		if _, ok := t[f32Key]; ok && len(t) == 1 {
			// Its text would read back as a Float32Array.
			return fmt.Errorf("%w: %q", ErrReservedKey, f32Key)
		}
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.buf = append(e.buf, '{')
		for i, k := range keys {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = appendString(e.buf, k)
			e.buf = append(e.buf, ':')
			if err := e.value(t[k]); err != nil {
				return err
			}
		}
		e.buf = append(e.buf, '}')
	default:
		data, err := json.Marshal(t)
		if err != nil {
			return err
		}
		e.buf = append(e.buf, data...)
	}
	e.spill()
	return nil
}

// float32s appends a Float32Array: its marker-object text, or in hash mode
// its tagged raw bits.
func (e *encoder) float32s(a webapp.Float32Array) error {
	if e.sum == nil || a == nil {
		e.buf = append(e.buf, `{"`+f32Key+`":`...)
		var err error
		if e.buf, err = appendFloat32s(e.buf, a); err != nil {
			return err
		}
		e.buf = append(e.buf, '}')
		return nil
	}
	e.buf = append(e.buf, f32HashTag)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(len(a)))
	for len(a) > 0 {
		n := min(len(a), hashChunk/4)
		for _, f := range a[:n] {
			bits := math.Float32bits(f)
			if bits&f32ExpMask == f32ExpMask {
				return checkFinite(float64(f), 32)
			}
			e.buf = binary.LittleEndian.AppendUint32(e.buf, bits)
		}
		a = a[n:]
		e.spill()
	}
	return nil
}

// f32ExpMask selects a float32's exponent; all ones means Inf or NaN.
const f32ExpMask = 0x7f800000

// appendFloat32s appends the JSON array text of a, "null" when a is nil.
func appendFloat32s(b []byte, a []float32) ([]byte, error) {
	if a == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, f := range a {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloat(b, float64(f), 32); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

func checkFinite(f float64, bits int) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, bits))
	}
	return nil
}

// appendFloat formats f the way encoding/json does for a float of the
// given bit size: shortest round-trip digits, 'f' notation except for
// magnitudes below 1e-6 or from 1e21 up, and exponents without padding.
func appendFloat(b []byte, f float64, bits int) ([]byte, error) {
	if err := checkFinite(f, bits); err != nil {
		return b, err
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		// Compare in the value's own precision so the cutoffs are exact.
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
			bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped as encoding/json does:
// control characters, <, > and & as \u00XX (short forms where JSON has
// them), invalid UTF-8 as \ufffd, and U+2028/U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// maxDepth is encoding/json's nesting limit, kept so that the decoder
// accepts the same inputs.
const maxDepth = 10000

var errEnd = errors.New("unexpected end of JSON input")

// valueDecoder parses one value of the snapshot value encoding. Decoded
// strings are copies, so a decoded value never pins its source line.
type valueDecoder struct {
	s   string
	pos int
}

// decodeValue parses the JSON text of one value, turning every
// {"__f32__":[...]} marker object into a Float32Array.
func decodeValue(body string) (webapp.Value, error) {
	d := valueDecoder{s: body}
	d.skipSpace()
	v, err := d.value(0)
	if err != nil {
		return nil, err
	}
	d.skipSpace()
	if d.pos < len(d.s) {
		return nil, d.unexpected("after top-level value")
	}
	return v, nil
}

func (d *valueDecoder) skipSpace() {
	for d.pos < len(d.s) {
		switch d.s[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *valueDecoder) unexpected(context string) error {
	if d.pos >= len(d.s) {
		return errEnd
	}
	return fmt.Errorf("invalid character %q at offset %d %s", d.s[d.pos], d.pos, context)
}

// accept consumes optional whitespace and then c, reporting whether c
// was there.
func (d *valueDecoder) accept(c byte) bool {
	d.skipSpace()
	if d.pos < len(d.s) && d.s[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

func (d *valueDecoder) value(depth int) (webapp.Value, error) {
	if d.pos >= len(d.s) {
		return nil, errEnd
	}
	switch c := d.s[d.pos]; {
	case c == '{':
		if v, ok := d.float32Marker(depth + 1); ok {
			return v, nil
		}
		return d.object(depth + 1)
	case c == '[':
		return d.array(depth + 1)
	case c == '"':
		return d.str()
	case c == '-' || '0' <= c && c <= '9':
		tok, err := d.number()
		if err != nil {
			return nil, err
		}
		return parseNumber(tok)
	case c == 't':
		return true, d.literal("true")
	case c == 'f':
		return false, d.literal("false")
	case c == 'n':
		return nil, d.literal("null")
	}
	return nil, d.unexpected("looking for beginning of value")
}

func (d *valueDecoder) literal(word string) error {
	if !strings.HasPrefix(d.s[d.pos:], word) {
		return d.unexpected("in literal")
	}
	d.pos += len(word)
	return nil
}

// number consumes one JSON number token and returns it.
func (d *valueDecoder) number() (string, error) {
	s, i := d.s, d.pos
	digits := func() bool {
		j := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case !digits():
		d.pos = i
		return "", d.unexpected("in numeric literal")
	}
	if i < len(s) && s[i] == '.' {
		i++
		if !digits() {
			d.pos = i
			return "", d.unexpected("after decimal point in numeric literal")
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			d.pos = i
			return "", d.unexpected("in exponent of numeric literal")
		}
	}
	tok := s[d.pos:i]
	d.pos = i
	return tok, nil
}

// pow10 are the powers of ten that float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseNumber converts a JSON number token exactly as
// strconv.ParseFloat(tok, 64) does. A token whose significant digits fit
// in 53 bits and whose decimal exponent is within ±22 is one exact
// integer times or divided by one exact power of ten, so a single
// correctly rounded multiply or divide gives the correctly rounded value;
// anything else goes to strconv.
func parseNumber(tok string) (float64, error) {
	var (
		mant   uint64
		digits int
		exp    int
		dot    bool
	)
	i := 0
	if tok[0] == '-' {
		i++
	}
	for ; i < len(tok); i++ {
		c := tok[i]
		if c == '.' {
			dot = true
			continue
		}
		if c == 'e' || c == 'E' {
			break
		}
		if dot {
			exp--
		}
		if mant == 0 && c == '0' {
			continue // leading zero
		}
		if digits++; digits > 19 {
			return strconv.ParseFloat(tok, 64)
		}
		mant = mant*10 + uint64(c-'0')
	}
	if i < len(tok) {
		i++
		neg := tok[i] == '-'
		if tok[i] == '+' || neg {
			i++
		}
		e := 0
		for ; i < len(tok); i++ {
			if e = e*10 + int(tok[i]-'0'); e > len(pow10) {
				return strconv.ParseFloat(tok, 64)
			}
		}
		if neg {
			e = -e
		}
		exp += e
	}
	f := float64(mant)
	switch {
	case mant > 1<<53:
		return strconv.ParseFloat(tok, 64)
	case mant == 0 || exp == 0:
	case exp > 0 && exp < len(pow10):
		f *= pow10[exp]
	case exp < 0 && -exp < len(pow10):
		f /= pow10[-exp]
	default:
		return strconv.ParseFloat(tok, 64)
	}
	if tok[0] == '-' {
		f = -f
	}
	return f, nil
}

// str consumes a JSON string and returns a fresh copy of its contents,
// unescaped as encoding/json does (lone surrogates and invalid UTF-8
// become U+FFFD).
func (d *valueDecoder) str() (string, error) {
	s := d.s
	i := d.pos + 1
	for i < len(s) {
		c := s[i]
		if c == '"' {
			out := strings.Clone(s[d.pos+1 : i])
			d.pos = i + 1
			return out, nil
		}
		if c == '\\' || c < 0x20 {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	b := make([]byte, 0, i-d.pos+16)
	b = append(b, s[d.pos+1:i]...)
	for i < len(s) {
		c := s[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return string(b), nil
		case c == '\\':
			i++
			if i >= len(s) {
				return "", errEnd
			}
			switch s[i] {
			case '"', '\\', '/':
				b = append(b, s[i])
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := getu4(s[i-1:])
				if r < 0 {
					d.pos = i
					return "", d.unexpected("in \\u hexadecimal character escape")
				}
				i += 5
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, getu4(s[i:])); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.pos = i
				return "", d.unexpected("in string escape code")
			}
			i++
		case c < 0x20:
			d.pos = i
			return "", d.unexpected("in string literal")
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	return "", errEnd
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s string) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	r, err := strconv.ParseUint(s[2:6], 16, 32)
	if err != nil {
		return -1
	}
	return rune(r)
}

func (d *valueDecoder) array(depth int) (webapp.Value, error) {
	if depth > maxDepth {
		return nil, errors.New("exceeded max depth")
	}
	d.pos++ // '['
	out := []webapp.Value{}
	d.skipSpace()
	if d.pos < len(d.s) && d.s[d.pos] == ']' {
		d.pos++
		return out, nil
	}
	for {
		d.skipSpace()
		v, err := d.value(depth)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		d.skipSpace()
		if d.pos >= len(d.s) {
			return nil, errEnd
		}
		switch d.s[d.pos] {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return out, nil
		default:
			return nil, d.unexpected("after array element")
		}
	}
}

func (d *valueDecoder) object(depth int) (webapp.Value, error) {
	if depth > maxDepth {
		return nil, errors.New("exceeded max depth")
	}
	d.pos++ // '{'
	out := make(map[string]webapp.Value)
	d.skipSpace()
	if d.pos < len(d.s) && d.s[d.pos] == '}' {
		d.pos++
		return out, nil
	}
	for {
		d.skipSpace()
		if d.pos >= len(d.s) || d.s[d.pos] != '"' {
			return nil, d.unexpected("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return nil, err
		}
		if !d.accept(':') {
			return nil, d.unexpected("after object key")
		}
		d.skipSpace()
		v, err := d.value(depth)
		if err != nil {
			return nil, err
		}
		out[key] = v
		d.skipSpace()
		if d.pos >= len(d.s) {
			return nil, errEnd
		}
		switch d.s[d.pos] {
		case ',':
			d.pos++
		case '}':
			d.pos++
			if raw, ok := out[f32Key]; ok && len(out) == 1 {
				return markerArray(raw)
			}
			return out, nil
		default:
			return nil, d.unexpected("after object key:value pair")
		}
	}
}

// markerArray converts the generic decoding of a {"__f32__": ...} marker
// object into its Float32Array.
func markerArray(raw webapp.Value) (webapp.Value, error) {
	arr, ok := raw.([]webapp.Value)
	if !ok {
		return nil, fmt.Errorf("%s marker is not an array", f32Key)
	}
	fa := make(webapp.Float32Array, len(arr))
	for i, el := range arr {
		f, ok := el.(float64)
		if !ok {
			return nil, fmt.Errorf("%s element %d is not a number", f32Key, i)
		}
		if fa[i] = float32(f); math.IsInf(float64(fa[i]), 0) {
			return nil, fmt.Errorf("%s element %d overflows float32", f32Key, i)
		}
	}
	return fa, nil
}

// float32Marker is the fast path for a {"__f32__":[numbers]} object at
// d.pos: it parses the elements straight into one exactly sized float32
// slice. On anything else — another key, a non-number element, an
// element that overflows float32 — it rewinds and reports false, and
// object then decodes generically and applies the same marker rule.
func (d *valueDecoder) float32Marker(depth int) (webapp.Value, bool) {
	start := d.pos
	rewind := func() (webapp.Value, bool) {
		d.pos = start
		return nil, false
	}
	if depth+1 > maxDepth {
		return rewind()
	}
	d.pos++
	d.skipSpace()
	if !strings.HasPrefix(d.s[d.pos:], `"`+f32Key+`"`) {
		return rewind()
	}
	d.pos += len(f32Key) + 2
	if !d.accept(':') || !d.accept('[') {
		return rewind()
	}
	end := strings.IndexByte(d.s[d.pos:], ']')
	if end < 0 {
		return rewind()
	}
	fa := make(webapp.Float32Array, 0, strings.Count(d.s[d.pos:d.pos+end], ",")+1)
	d.skipSpace()
	if d.pos < len(d.s) && d.s[d.pos] == ']' {
		d.pos++
	} else {
		for {
			d.skipSpace()
			tok, err := d.number()
			if err != nil {
				return rewind()
			}
			f, err := parseNumber(tok)
			if err != nil || math.IsInf(float64(float32(f)), 0) {
				return rewind()
			}
			fa = append(fa, float32(f))
			d.skipSpace()
			if d.pos >= len(d.s) {
				return rewind()
			}
			c := d.s[d.pos]
			d.pos++
			if c == ']' {
				break
			}
			if c != ',' {
				return rewind()
			}
		}
	}
	if !d.accept('}') {
		return rewind()
	}
	return fa, true
}
