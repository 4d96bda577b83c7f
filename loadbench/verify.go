package main

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"sqlpp/internal/datafmt"
	"sqlpp/internal/value"
)

// expected is a reference answer in canonical form. Bags compare as
// multisets and arrays in order. JSON erases the bag/array distinction,
// so the reference records the paths at which it holds bags and the
// served answer is canonicalized with the same paths: a change to the
// order in which a bag is written passes, a wrong row does not.
type expected struct {
	canon string
	bags  map[string]bool
}

func newExpected(ref value.Value) *expected {
	bags := map[string]bool{}
	bagPaths(ref, "", bags)
	return &expected{canon: canonical(ref, bags), bags: bags}
}

// matches reports whether a served JSON result equals the reference.
func (e *expected) matches(raw []byte) bool {
	v, err := datafmt.ParseJSON(string(raw))
	if err != nil {
		return false
	}
	return canonical(v, e.bags) == e.canon
}

func bagPaths(v value.Value, path string, out map[string]bool) {
	switch x := v.(type) {
	case value.Bag:
		out[path] = true
		for _, el := range x {
			bagPaths(el, path+"[]", out)
		}
	case value.Array:
		for _, el := range x {
			bagPaths(el, path+"[]", out)
		}
	case *value.Tuple:
		for _, f := range x.Fields() {
			bagPaths(f.Value, path+"."+f.Name, out)
		}
	}
}

func canonical(v value.Value, bags map[string]bool) string {
	var b strings.Builder
	writeCanon(&b, v, "", bags)
	return b.String()
}

// writeCanon renders v so that equal answers render equal: tuple fields
// sorted by name with MISSING fields dropped (JSON omits them), numbers
// by value (JSON may print an integral float as an integer; floats keep
// 12 significant digits, since a sharded AVG may differ from a
// single-node one in the last place), and collections at bag paths
// sorted by their elements' renderings.
func writeCanon(b *strings.Builder, v value.Value, path string, bags map[string]bool) {
	switch x := v.(type) {
	case value.Array:
		writeElems(b, x, path, bags)
	case value.Bag:
		writeElems(b, x, path, bags)
	case *value.Tuple:
		fields := make([]value.Field, 0, x.Len())
		for _, f := range x.Fields() {
			if f.Value.Kind() != value.KindMissing {
				fields = append(fields, f)
			}
		}
		sort.SliceStable(fields, func(i, j int) bool { return fields[i].Name < fields[j].Name })
		b.WriteByte('{')
		for i, f := range fields {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(f.Name))
			b.WriteByte(':')
			writeCanon(b, f.Value, path+"."+f.Name, bags)
		}
		b.WriteByte('}')
	case value.Int:
		b.WriteString(strconv.FormatInt(int64(x), 10))
	case value.Float:
		f := float64(x)
		if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			b.WriteString(strconv.FormatInt(int64(f), 10))
		} else {
			b.WriteString(strconv.FormatFloat(f, 'g', 12, 64))
		}
	case value.String:
		b.WriteString(strconv.Quote(string(x)))
	default:
		b.WriteString(v.String())
	}
}

func writeElems(b *strings.Builder, els []value.Value, path string, bags map[string]bool) {
	parts := make([]string, len(els))
	for i, el := range els {
		var eb strings.Builder
		writeCanon(&eb, el, path+"[]", bags)
		parts[i] = eb.String()
	}
	if bags[path] {
		sort.Strings(parts)
	}
	b.WriteByte('[')
	b.WriteString(strings.Join(parts, ","))
	b.WriteByte(']')
}
