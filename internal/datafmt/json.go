// Package datafmt maps external data formats onto the SQL++ data model,
// realizing the paper's format-independence tenet: a query is written
// identically over JSON, CSV, CBOR, or the paper's object notation,
// because every format decodes to the same logical values.
//
// Mapping notes:
//   - JSON objects become tuples (preserving member order and permitting
//     duplicate names), arrays become arrays, and top-level arrays can be
//     read as bags for collection registration.
//   - CSV rows become tuples named by the header line; fields parse as
//     numbers or booleans when unambiguous, else strings.
//   - CBOR (RFC 8949) is implemented from scratch for the major types;
//     maps with text keys become tuples, arrays become arrays.
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
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"sqlpp/internal/value"
)

// DecodeJSON reads one JSON value from r into the SQL++ data model.
// Numbers become Int when they are integral and fit int64, else Float.
func DecodeJSON(r io.Reader) (value.Value, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	v, err := decodeJSONValue(dec)
	if err != nil {
		return nil, err
	}
	// Disallow trailing content beyond whitespace.
	if dec.More() {
		return nil, fmt.Errorf("datafmt: trailing content after JSON value")
	}
	return v, nil
}

// ParseJSON decodes a JSON string.
func ParseJSON(src string) (value.Value, error) {
	return DecodeJSON(strings.NewReader(src))
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

// DecodeJSONLines reads newline-delimited JSON documents as a bag.
func DecodeJSONLines(r io.Reader) (value.Value, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var out value.Bag
	for dec.More() {
		v, err := decodeJSONValue(dec)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func decodeJSONValue(dec *json.Decoder) (value.Value, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	return decodeJSONToken(dec, tok)
}

func decodeJSONToken(dec *json.Decoder, tok json.Token) (value.Value, error) {
	switch t := tok.(type) {
	case nil:
		return value.Null, nil
	case bool:
		return value.Bool(t), nil
	case string:
		return value.String(t), nil
	case json.Number:
		return jsonNumber(t), nil
	case json.Delim:
		switch t {
		case '[':
			var out value.Array
			for dec.More() {
				v, err := decodeJSONValue(dec)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
			if _, err := dec.Token(); err != nil { // consume ']'
				return nil, err
			}
			if out == nil {
				out = value.Array{}
			}
			return out, nil
		case '{':
			tup := value.EmptyTuple()
			for dec.More() {
				keyTok, err := dec.Token()
				if err != nil {
					return nil, err
				}
				key, ok := keyTok.(string)
				if !ok {
					return nil, fmt.Errorf("datafmt: non-string JSON object key %v", keyTok)
				}
				v, err := decodeJSONValue(dec)
				if err != nil {
					return nil, err
				}
				tup.Put(key, v)
			}
			if _, err := dec.Token(); err != nil { // consume '}'
				return nil, err
			}
			return tup, nil
		}
	}
	return nil, fmt.Errorf("datafmt: unexpected JSON token %v", tok)
}

func jsonNumber(n json.Number) value.Value {
	if i, err := n.Int64(); err == nil {
		return value.Int(i)
	}
	f, err := n.Float64()
	if err != nil {
		return value.Null
	}
	return value.Float(f)
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
