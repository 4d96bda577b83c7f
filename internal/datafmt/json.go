// Package datafmt maps external data formats onto the SQL++ data model,
// realizing the paper's format-independence tenet: a query is written
// identically over JSON, CSV, CBOR, or the paper's object notation,
// because every format decodes to the same logical values.
//
// Mapping notes:
//   - JSON objects become tuples (preserving member order and permitting
//     duplicate names), arrays become arrays, and top-level arrays can be
//     read as bags for collection registration. A number is Int when
//     strconv.ParseInt accepts its literal, else Float (NULL past the
//     float64 range).
//   - CSV rows become tuples named by the header line; fields parse as
//     numbers or booleans when unambiguous, else strings.
//   - CBOR (RFC 8949) is implemented from scratch for the major types;
//     maps with text keys become tuples, arrays become arrays.
//
// JSON decoding is one recursive-descent scanner over the whole input.
// It yields the values encoding/json's token decoder yielded, except
// that a stray closer after a complete value is an error. A string
// without escapes whose bytes are valid UTF-8 is a slice of the input,
// so decoded strings share the input's memory. Arrays and objects may
// nest at most 10000 deep, encoding/json's limit; deeper input is an
// error rather than a stack overflow.
//
// JSON encoding appends to a caller's buffer (AppendJSON). JSON has no
// unordered collection, so a bag is written in the canonical
// value.Compare order, sorted once by value order keys. Strings and
// attribute names are escaped exactly as encoding/json escapes them, so
// output is byte-identical to a json.Marshal-based encoder.
package datafmt

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"sqlpp/internal/value"
)

// DecodeJSON reads one JSON value from r into the SQL++ data model (see
// ParseJSON). Only whitespace may follow the value.
func DecodeJSON(r io.Reader) (value.Value, error) {
	src, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return ParseJSON(src)
}

// ParseJSON decodes a JSON string. Objects become tuples with member
// order and duplicate names kept. A number is Int when strconv.ParseInt
// accepts its literal, else Float, and NULL when the literal overflows
// float64. Strings are unquoted by encoding/json's rules: invalid UTF-8
// and lone surrogates become U+FFFD. Only whitespace may follow the
// value.
func ParseJSON(src string) (value.Value, error) {
	d := jsonDecoder{src: src}
	if d.skipSpace(); d.pos == len(src) {
		return nil, io.EOF
	}
	v, err := d.value()
	if err != nil {
		return nil, err
	}
	if d.skipSpace(); d.pos < len(src) {
		return nil, errTrailing
	}
	return v, nil
}

// DecodeJSONBag reads a JSON value and converts a top-level array into a
// bag, the natural registration shape for a collection of documents.
func DecodeJSONBag(r io.Reader) (value.Value, error) {
	v, err := DecodeJSON(r)
	if err != nil {
		return nil, err
	}
	if a, ok := v.(value.Array); ok {
		return value.Bag(a), nil
	}
	return v, nil
}

// DecodeJSONLines reads a stream of JSON documents, usually one per
// line, as a bag. Documents are separated by whitespace, or by nothing
// where the first one ends unambiguously (as encoding/json's Decoder
// reads a stream).
func DecodeJSONLines(r io.Reader) (value.Value, error) {
	src, err := readAll(r)
	if err != nil {
		return nil, err
	}
	d := jsonDecoder{src: src}
	var out value.Bag
	for d.skipSpace(); d.pos < len(src); d.skipSpace() {
		if c := src[d.pos]; c == ']' || c == '}' {
			return nil, errTrailing
		}
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

var errTrailing = errors.New("datafmt: trailing content after JSON value")

// readAll reads r into one string, which the decoder slices for the
// strings it returns.
func readAll(r io.Reader) (string, error) {
	var b strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		b.Grow(l.Len())
	}
	if _, err := io.Copy(&b, r); err != nil {
		return "", err
	}
	return b.String(), nil
}

// maxJSONDepth bounds how deeply arrays and objects nest, as in
// encoding/json's scanner, so a body of brackets cannot overflow the
// stack of the recursive decoder.
const maxJSONDepth = 10000

// jsonDecoder is a recursive-descent JSON decoder over the whole input.
// Containers under construction share two stacks, so a decoded array or
// tuple is allocated once, at its final size.
type jsonDecoder struct {
	src    string
	pos    int
	depth  int           // arrays and objects open at pos
	elems  []value.Value // elements of the open arrays
	fields []value.Field // attributes of the open objects
	buf    []byte        // unquoting scratch
}

func (d *jsonDecoder) skipSpace() {
	for d.pos < len(d.src) {
		switch d.src[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// syntaxError describes the byte at d.pos, or the end of the input.
func (d *jsonDecoder) syntaxError(context string) error {
	if d.pos >= len(d.src) {
		return fmt.Errorf("datafmt: unexpected end of JSON input %s", context)
	}
	return fmt.Errorf("datafmt: invalid character %q at offset %d %s", d.src[d.pos], d.pos, context)
}

// value decodes the value starting at the next non-space byte.
func (d *jsonDecoder) value() (value.Value, error) {
	d.skipSpace()
	if d.pos == len(d.src) {
		return nil, d.syntaxError("looking for beginning of value")
	}
	switch c := d.src[d.pos]; {
	case c == '{':
		return d.object()
	case c == '[':
		return d.array()
	case c == '"':
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		return value.String(s), nil
	case c == 't':
		return d.literal("true", value.True)
	case c == 'f':
		return d.literal("false", value.False)
	case c == 'n':
		return d.literal("null", value.Null)
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return nil, d.syntaxError("looking for beginning of value")
}

func (d *jsonDecoder) literal(lit string, v value.Value) (value.Value, error) {
	for i := 0; i < len(lit); i++ {
		if d.pos == len(d.src) || d.src[d.pos] != lit[i] {
			return nil, d.syntaxError("in literal " + lit)
		}
		d.pos++
	}
	return v, nil
}

// number decodes the longest number literal at d.pos; whatever follows
// it is left for the caller.
func (d *jsonDecoder) number() (value.Value, error) {
	s, start := d.src, d.pos
	digits := func() bool {
		from := d.pos
		for d.pos < len(s) && '0' <= s[d.pos] && s[d.pos] <= '9' {
			d.pos++
		}
		return d.pos > from
	}
	if s[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(s) && s[d.pos] == '0':
		d.pos++
	case !digits():
		return nil, d.syntaxError("in numeric literal")
	}
	integral := true
	if d.pos < len(s) && s[d.pos] == '.' {
		integral = false
		d.pos++
		if !digits() {
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
	}
	if d.pos < len(s) && (s[d.pos] == 'e' || s[d.pos] == 'E') {
		integral = false
		d.pos++
		if d.pos < len(s) && (s[d.pos] == '+' || s[d.pos] == '-') {
			d.pos++
		}
		if !digits() {
			return nil, d.syntaxError("in exponent of numeric literal")
		}
	}
	lit := s[start:d.pos]
	if integral {
		// ParseInt rejects every literal with a fraction or an exponent,
		// so only integral ones try it.
		if i, err := strconv.ParseInt(lit, 10, 64); err == nil {
			return value.Int(i), nil
		}
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return value.Null, nil // out of float64 range
	}
	return value.Float(f), nil
}

// str decodes the string literal whose opening quote is at d.pos. A
// string without escapes whose bytes are valid UTF-8 is a slice of the
// input; any other is unquoted into a new string.
func (d *jsonDecoder) str() (string, error) {
	s := d.src
	start := d.pos + 1
	for p := start; p < len(s); {
		switch c := s[p]; {
		case jsonPlain[c]:
			p++
		case c == '"':
			d.pos = p + 1
			return s[start:p], nil
		case c < utf8.RuneSelf: // a backslash or a control character
			return d.unquote(start)
		default:
			r, size := utf8.DecodeRuneInString(s[p:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start)
			}
			p += size
		}
	}
	d.pos = len(s)
	return "", d.syntaxError("in string literal")
}

// unquote decodes the string literal whose contents begin at start the
// way encoding/json does: a control character or an unknown escape is
// an error, each invalid UTF-8 byte becomes U+FFFD, and a \u escape of
// a surrogate becomes U+FFFD unless a \u escape of its pair follows.
func (d *jsonDecoder) unquote(start int) (string, error) {
	s := d.src
	b := d.buf[:0]
	for p := start; p < len(s); {
		switch c := s[p]; {
		case c == '"':
			d.pos, d.buf = p+1, b
			return string(b), nil
		case c == '\\':
			if p+1 == len(s) {
				d.pos = p + 1
				return "", d.syntaxError("in string escape code")
			}
			switch e := s[p+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
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
				r := hex4(s, p+2)
				if r < 0 {
					d.pos = p + 2
					return "", d.syntaxError("in \\u hexadecimal character escape")
				}
				p += 6
				if utf16.IsSurrogate(r) {
					if p+1 < len(s) && s[p] == '\\' && s[p+1] == 'u' {
						if pair := utf16.DecodeRune(r, hex4(s, p+2)); pair != utf8.RuneError {
							b = utf8.AppendRune(b, pair)
							p += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.pos = p + 1
				return "", d.syntaxError("in string escape code")
			}
			p += 2
		case c < ' ':
			d.pos = p
			return "", d.syntaxError("in string literal")
		case c < utf8.RuneSelf:
			b = append(b, c)
			p++
		default:
			r, size := utf8.DecodeRuneInString(s[p:])
			b = utf8.AppendRune(b, r)
			p += size
		}
	}
	d.pos = len(s)
	return "", d.syntaxError("in string literal")
}

// hex4 decodes the four hexadecimal digits at s[p:], or returns -1.
func hex4(s string, p int) rune {
	if p+4 > len(s) {
		return -1
	}
	var r rune
	for _, c := range []byte(s[p : p+4]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// jsonPlain marks the bytes a string literal holds as themselves and
// that are valid UTF-8 on their own: printable ASCII except '"' and '\\'.
var jsonPlain = func() (plain [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		plain[c] = c != '"' && c != '\\'
	}
	return plain
}()

// open enters the array or object whose opening byte is at d.pos.
func (d *jsonDecoder) open() error {
	if d.depth == maxJSONDepth {
		return fmt.Errorf("datafmt: JSON nested deeper than %d at offset %d", maxJSONDepth, d.pos)
	}
	d.depth++
	d.pos++
	return nil
}

func (d *jsonDecoder) array() (value.Value, error) {
	if err := d.open(); err != nil {
		return nil, err
	}
	if d.skipSpace(); d.pos < len(d.src) && d.src[d.pos] == ']' {
		d.pos++
		d.depth--
		return value.Array{}, nil
	}
	base := len(d.elems)
	for {
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		d.elems = append(d.elems, v)
		if d.skipSpace(); d.pos < len(d.src) {
			switch d.src[d.pos] {
			case ',':
				d.pos++
				continue
			case ']':
				d.pos++
				d.depth--
				out := make(value.Array, len(d.elems)-base)
				copy(out, d.elems[base:])
				clear(d.elems[base:])
				d.elems = d.elems[:base]
				return out, nil
			}
		}
		return nil, d.syntaxError("after array element")
	}
}

func (d *jsonDecoder) object() (value.Value, error) {
	if err := d.open(); err != nil {
		return nil, err
	}
	if d.skipSpace(); d.pos < len(d.src) && d.src[d.pos] == '}' {
		d.pos++
		d.depth--
		return value.EmptyTuple(), nil
	}
	base := len(d.fields)
	for {
		if d.skipSpace(); d.pos == len(d.src) || d.src[d.pos] != '"' {
			return nil, d.syntaxError("looking for beginning of object key string")
		}
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		if d.skipSpace(); d.pos == len(d.src) || d.src[d.pos] != ':' {
			return nil, d.syntaxError("after object key")
		}
		d.pos++
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		d.fields = append(d.fields, value.Field{Name: name, Value: v})
		if d.skipSpace(); d.pos < len(d.src) {
			switch d.src[d.pos] {
			case ',':
				d.pos++
				continue
			case '}':
				d.pos++
				d.depth--
				t := value.NewTuple(d.fields[base:]...)
				clear(d.fields[base:])
				d.fields = d.fields[:base]
				return t, nil
			}
		}
		return nil, d.syntaxError("after object key:value pair")
	}
}

// EncodeJSON writes v as JSON. MISSING cannot be encoded (it denotes
// absence); encountering it anywhere is an error — construct results
// first, where tuple construction drops MISSING attributes. Bags encode
// as arrays (JSON has no unordered collection), in canonical order for
// determinism.
func EncodeJSON(w io.Writer, v value.Value) error {
	buf, err := AppendJSON(context.TODO(), nil, v)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// JSONString renders v as a JSON string.
func JSONString(v value.Value) (string, error) {
	buf, err := AppendJSON(context.TODO(), nil, v)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// AppendJSON appends the JSON encoding of v (see EncodeJSON) to dst and
// returns the extended slice. It polls ctx every pollEvery collection
// elements it writes and every pollEvery elements of a bag it sorts, and
// stops with ctx's error once ctx is done, so a deadline covers the
// encode as well as the execution.
func AppendJSON(ctx context.Context, dst []byte, v value.Value) ([]byte, error) {
	e := jsonEncoder{ctx: ctx}
	return e.append(dst, v)
}

// pollEvery is how many collection elements the encoder writes between
// checks of its context.
const pollEvery = 256

type jsonEncoder struct {
	ctx     context.Context
	written int // collection elements written
}

func (e *jsonEncoder) append(dst []byte, v value.Value) ([]byte, error) {
	switch x := v.(type) {
	case value.Bool:
		return strconv.AppendBool(dst, bool(x)), nil
	case value.Int:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case value.Float:
		f := float64(x)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return append(dst, "null"...), nil // JSON cannot express them
		}
		return strconv.AppendFloat(dst, f, 'g', -1, 64), nil
	case value.String:
		return AppendJSONString(dst, string(x)), nil
	case value.Bytes:
		// Bytes encode as a hex string, the closest JSON-safe mapping.
		dst = append(dst, '"')
		dst = hex.AppendEncode(dst, x)
		return append(dst, '"'), nil
	case value.Array:
		return e.appendSeq(dst, x)
	case value.Bag:
		if len(x) < 2 {
			return e.appendSeq(dst, x)
		}
		sorted := make([]value.Value, len(x))
		copy(sorted, x)
		if err := value.SortValuesContext(e.ctx, sorted); err != nil {
			return dst, err
		}
		return e.appendSeq(dst, sorted)
	case *value.Tuple:
		dst = append(dst, '{')
		for i, f := range x.Fields() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(AppendJSONString(dst, f.Name), ':')
			var err error
			if dst, err = e.append(dst, f.Value); err != nil {
				return dst, err
			}
		}
		return append(dst, '}'), nil
	}
	switch v.Kind() {
	case value.KindNull:
		return append(dst, "null"...), nil
	case value.KindMissing:
		return dst, fmt.Errorf("datafmt: MISSING cannot be encoded as JSON")
	}
	return dst, fmt.Errorf("datafmt: cannot encode %s as JSON", v.Kind())
}

func (e *jsonEncoder) appendSeq(dst []byte, vs []value.Value) ([]byte, error) {
	dst = append(dst, '[')
	for i, v := range vs {
		if e.written++; e.written%pollEvery == 0 {
			if err := e.ctx.Err(); err != nil {
				return dst, err
			}
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = e.append(dst, v); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// AppendJSONString appends s as a JSON string literal, byte for byte as
// encoding/json writes it: '<', '>' and '&' are escaped, invalid UTF-8
// becomes \ufffd, and U+2028 and U+2029 are escaped.
func AppendJSONString(dst []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// jsonSafe marks the ASCII bytes a JSON string holds unescaped:
// everything printable except '"', '\\' and the HTML-sensitive '<', '>'
// and '&'.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = !strings.ContainsRune(`"\<>&`, b)
	}
	return safe
}()
