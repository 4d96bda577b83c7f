package datafmt_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sqlpp/internal/datafmt"
	"sqlpp/internal/value"
)

// refDecodeJSON is the encoding/json Token decoder the direct scanner
// replaced, with two corrections: a stray ']' or '}' after the value is
// trailing content too, and arrays and objects nest at most
// refMaxDepth deep. Every decode must match it in value, in kind
// (Int against Float) and in whether the input is accepted.
func refDecodeJSON(src string) (value.Value, error) {
	dec := json.NewDecoder(strings.NewReader(src))
	dec.UseNumber()
	v, err := refDecodeValue(dec, 0)
	if err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing content after JSON value")
	}
	return v, nil
}

// refDecodeJSONLines is refDecodeJSON over a stream of documents.
func refDecodeJSONLines(src string) (value.Value, error) {
	dec := json.NewDecoder(strings.NewReader(src))
	dec.UseNumber()
	var out value.Bag
	for dec.More() {
		v, err := refDecodeValue(dec, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing content after JSON value")
	}
	return out, nil
}

// refMaxDepth is encoding/json's nesting limit, which its Token API
// does not apply.
const refMaxDepth = 10000

// refDecodeValue decodes the next value inside depth open containers.
func refDecodeValue(dec *json.Decoder, depth int) (value.Value, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if _, ok := tok.(json.Delim); ok && depth == refMaxDepth {
		return nil, errors.New("nested too deeply")
	}
	switch t := tok.(type) {
	case nil:
		return value.Null, nil
	case bool:
		return value.Bool(t), nil
	case string:
		return value.String(t), nil
	case json.Number:
		if i, err := t.Int64(); err == nil {
			return value.Int(i), nil
		}
		f, err := t.Float64()
		if err != nil {
			return value.Null, nil
		}
		return value.Float(f), nil
	case json.Delim:
		switch t {
		case '[':
			var out value.Array
			for dec.More() {
				v, err := refDecodeValue(dec, depth+1)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
			if _, err := dec.Token(); err != nil {
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
					return nil, fmt.Errorf("non-string object key %v", keyTok)
				}
				v, err := refDecodeValue(dec, depth+1)
				if err != nil {
					return nil, err
				}
				tup.Put(key, v)
			}
			if _, err := dec.Token(); err != nil {
				return nil, err
			}
			return tup, nil
		}
	}
	return nil, fmt.Errorf("unexpected token %v", tok)
}

// checkDecode requires ParseJSON, DecodeJSON and DecodeJSONLines to
// agree with the reference on src. reflect.DeepEqual tells Int from
// Float, member order, duplicate names and empty from absent slices.
func checkDecode(t *testing.T, src string) {
	t.Helper()
	want, wantErr := refDecodeJSON(src)
	for name, decode := range map[string]func(string) (value.Value, error){
		"ParseJSON":  datafmt.ParseJSON,
		"DecodeJSON": func(s string) (value.Value, error) { return datafmt.DecodeJSON(strings.NewReader(s)) },
	} {
		got, err := decode(src)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s(%q): error %v, reference error %v", name, src, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s(%q) = %#v, reference %#v", name, src, got, want)
		}
	}
	want, wantErr = refDecodeJSONLines(src)
	got, err := datafmt.DecodeJSONLines(strings.NewReader(src))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("DecodeJSONLines(%q): error %v, reference error %v", src, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeJSONLines(%q) = %#v, reference %#v", src, got, want)
	}
}

// decodeCases covers the number, string and structure rules the
// scanner must share with encoding/json, and malformed input around
// each of them.
var decodeCases = []string{
	// Objects: member order, duplicate names, empty containers.
	`{"b": 1, "a": 2, "b": 3}`, `{}`, `[]`, `{"a":{}}`, `[[],{}]`, `{"":""}`,
	`{"a":[{"b":[]}]}`,
	// Numbers: Int when ParseInt accepts the literal, else Float, NULL
	// past float64.
	`0`, `-0`, `1.0`, `-0.0`, `1e400`, `-1e400`, `1e-400`, `9223372036854775807`,
	`9223372036854775808`, `-9223372036854775808`, `-9223372036854775809`,
	`1E2`, `1e+2`, `1e-2`, `123456789012345678901234567890`, `0.1`, `[1,-2,3.5e1]`,
	// Strings: escapes, NUL, surrogates, invalid UTF-8, the solidus.
	`"\u0000"`, `"a\u0000b"`, `"\ud800"`, `"\udc00"`, `"😀"`, `"\ud83d"`,
	`"\ud83d\ude00"`, `"\uD83D\uDE00"`, `"\ude00\ud83d"`, `"\ud83d\ud83d\ude00"`, `"\u2028\u00e9"`,
	`"\ud83dA"`, `"\ud83d😀"`, `"\ud83dx"`, "\"\xff\"", "\"a\xc3\"", "\"\xed\xa0\x80\"",
	`"\/"`, `"\\\"\b\f\n\r\t"`, `"éé"`, `"é日本\U0001F600"`, "\"\x7f\"",
	"{\"\xff\":1}", `{"A":1}`, `"plain ascii"`,
	// Whitespace: the four JSON space bytes everywhere, and bytes that
	// are not JSON whitespace.
	" \t\r\n{ \t\r\n\"a\" \t\r\n: \t\r\n[ \t\r\n1 \t\r\n, \t\r\n2 \t\r\n] \t\r\n} \t\r\n",
	"\f1", "1\f", "\v1", " 1", "1 ", "\x001",
	// Malformed input, including trailing closers.
	``, ` `, `[1]]`, `{}}`, `1]`, `]`, `}`, `[1,]`, `{"a":}`, `1 2`, `{`, `[`, `[1`, `{"a"`,
	`{"a":1`, `{"a" 1}`, `{"a":1 "b":2}`, `{,}`, `[,1]`, `{1:2}`, `[1 2]`, `01`, `-`, `-a`,
	`1.`, `1.e1`, `1e`, `1e+`, `.5`, `+1`, `tru`, `truex`, `nul`, `nulll`, `falsy`,
	`"abc`, `"\x"`, `"\u12"`, `"\u12g4"`, `"\`, "\"a\x01\"", "\"\t\"", `'a'`, `[1]x`,
	`"\'"`, `1true`, `{}{}`, `"a""b"`, `[]1`, `truefalse`, `0 1 ]`, "\xef\xbb\xbf1",
}

func TestDecodeJSONMatchesReference(t *testing.T) {
	deep := strings.Repeat(`[{"a":`, 500) + `1` + strings.Repeat(`}]`, 500)
	for _, src := range append(decodeCases, deep, deep+"]", deep[1:]) {
		checkDecode(t, src)
	}
	// The nesting limit: refMaxDepth containers decode, one more does
	// not, however it is closed.
	for _, n := range []int{refMaxDepth - 1, refMaxDepth, refMaxDepth + 1} {
		checkDecode(t, strings.Repeat("[", n)+strings.Repeat("]", n))
		checkDecode(t, strings.Repeat(`{"a":`, n)+"1"+strings.Repeat("}", n))
		checkDecode(t, strings.Repeat(`[{"a":`, n/2)+"[]"+strings.Repeat("}]", n/2))
	}
	// Random heterogeneous values round-tripped through the encoder.
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		buf, err := datafmt.AppendJSON(context.Background(), nil, heteroValue(r, 3))
		if err != nil {
			continue // MISSING does not encode
		}
		checkDecode(t, string(buf))
	}
}

// FuzzDecodeJSON holds the scanner to the reference decoder on
// arbitrary input.
func FuzzDecodeJSON(f *testing.F) {
	for _, src := range decodeCases {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkDecode(t, src)
	})
}

// TestDeepNestingRejected: a body of a million '[' is an error, not a
// stack overflow that would end the process.
func TestDeepNestingRejected(t *testing.T) {
	src := strings.Repeat("[", 1<<20)
	if _, err := datafmt.ParseJSON(src); err == nil || !strings.Contains(err.Error(), "nested deeper") {
		t.Errorf("ParseJSON of %d '[': err = %v, want a nesting error", len(src), err)
	}
	if _, err := datafmt.DecodeJSONLines(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), "nested deeper") {
		t.Errorf("DecodeJSONLines of %d '[': err = %v, want a nesting error", len(src), err)
	}
}

// TestTrailingClosersRejected: a stray closer after a complete value is
// trailing content, for one document and for a stream of them.
func TestTrailingClosersRejected(t *testing.T) {
	for _, src := range []string{"[1]]", "{}}", "1 ]", `{"a":1}}`} {
		if _, err := datafmt.ParseJSON(src); err == nil || !strings.Contains(err.Error(), "trailing content after JSON value") {
			t.Errorf("ParseJSON(%q): err = %v, want trailing content", src, err)
		}
		if _, err := datafmt.DecodeJSONLines(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), "trailing content after JSON value") {
			t.Errorf("DecodeJSONLines(%q): err = %v, want trailing content", src, err)
		}
	}
}
