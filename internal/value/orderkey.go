package value

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"math"
	"slices"
)

// Order-key bytes. A collection writes keyElem before each element and
// keyEnd after the last, so a shorter collection whose elements are a
// prefix of a longer one's sorts first. Strings escape NUL as
// keyNUL keyEsc and end with keyNUL keyEnd, which keeps byte order.
const (
	keyEnd  = 0x00
	keyElem = 0x01
	keyNUL  = 0x00
	keyEsc  = 0xff
)

// AppendOrderKey appends an order key for v to dst and returns the
// extended slice. Order keys compare with bytes.Compare exactly as the
// values compare with Compare, and values that Compare equal receive
// identical keys. A key is self-delimiting, so keys can be concatenated
// and still compare element by element.
//
// Layout: one compare-class byte, then
//
//   - Bool: 0 or 1;
//   - Int, Float: the value rounded to float64 as order-preserving
//     big-endian bits (-0 folded into +0, every NaN as all zeros, below
//     -Inf), then the signed residual i - float64(i) of an Int, zero for a
//     Float, so integers beyond 2^53 stay exact against floats;
//   - String, Bytes: the bytes with NUL escaped, then a terminator;
//   - Array: each element's key after a marker, then an end byte;
//   - Tuple: the (name, value) pair keys sorted, each after a marker;
//   - Bag: the element keys sorted, each after a marker.
func AppendOrderKey(dst []byte, v Value) []byte {
	var e orderKeyEncoder
	return e.append(dst, v)
}

// orderKeyEncoder keeps the scratch space that sorting a tuple's pairs
// or a bag's elements needs, so that encoding many values reuses it.
// Nested collections share ends as a stack: each one pushes its segment
// ends above the caller's and pops them before returning.
type orderKeyEncoder struct {
	ends []int
	segs [][]byte
	tmp  []byte
}

func (e *orderKeyEncoder) append(dst []byte, v Value) []byte {
	dst = append(dst, byte(compareClass(v.Kind())))
	switch x := v.(type) {
	case Bool:
		if x {
			return append(dst, 1)
		}
		return append(dst, 0)
	case Int:
		return appendOrderedNumber(dst, float64(x), intResidual(int64(x)))
	case Float:
		return appendOrderedNumber(dst, float64(x), 0)
	case String:
		return appendEscaped(dst, x)
	case Bytes:
		return appendEscaped(dst, x)
	case Array:
		for _, el := range x {
			dst = e.append(append(dst, keyElem), el)
		}
		return append(dst, keyEnd)
	case Bag:
		base, start := len(e.ends), len(dst)
		for _, el := range x {
			dst = e.append(append(dst, keyElem), el)
			e.ends = append(e.ends, len(dst))
		}
		dst = e.sortSegments(dst, start, base)
		return append(dst, keyEnd)
	case *Tuple:
		base, start := len(e.ends), len(dst)
		for _, f := range x.fields {
			dst = appendEscaped(append(dst, keyElem), f.Name)
			dst = e.append(dst, f.Value)
			e.ends = append(e.ends, len(dst))
		}
		dst = e.sortSegments(dst, start, base)
		return append(dst, keyEnd)
	}
	// MISSING and NULL are their class byte alone.
	return dst
}

// sortSegments reorders the segments dst[start:] (ending at e.ends[base:])
// into ascending byte order and pops their ends. Equal segments are
// byte-identical, so the sort needs no stability.
func (e *orderKeyEncoder) sortSegments(dst []byte, start, base int) []byte {
	ends := e.ends[base:]
	e.ends = e.ends[:base]
	if len(ends) < 2 {
		return dst
	}
	e.segs = e.segs[:0]
	lo := start
	for _, hi := range ends {
		e.segs = append(e.segs, dst[lo:hi])
		lo = hi
	}
	slices.SortFunc(e.segs, bytes.Compare)
	e.tmp = e.tmp[:0]
	for _, s := range e.segs {
		e.tmp = append(e.tmp, s...)
	}
	copy(dst[start:], e.tmp)
	return dst
}

// intResidual is i minus i rounded to float64, exact because the rounding
// error of an int64 is at most 2^10. Integers that round up to 2^63 are
// measured against 2^63 = MaxInt64 + 1 without converting it back.
func intResidual(i int64) int64 {
	f := float64(i)
	if f >= 9.223372036854776e18 {
		return i - math.MaxInt64 - 1
	}
	return i - int64(f)
}

func appendOrderedNumber(dst []byte, f float64, residual int64) []byte {
	var bits uint64 // NaN: below every ordered number, -Inf included
	switch {
	case math.IsNaN(f):
	case f == 0:
		bits = 1 << 63 // -0 and +0
	case f > 0:
		bits = math.Float64bits(f) | 1<<63
	default:
		bits = ^math.Float64bits(f)
	}
	dst = binary.BigEndian.AppendUint64(dst, bits)
	return binary.BigEndian.AppendUint64(dst, uint64(residual)^1<<63)
}

func appendEscaped[S ~string | ~[]byte](dst []byte, s S) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == keyNUL {
			dst = append(append(dst, s[start:i]...), keyNUL, keyEsc)
			start = i + 1
		}
	}
	return append(append(dst, s[start:]...), keyNUL, keyEnd)
}

// SortValues stably sorts vs in place by the SQL++ total order (Compare).
func SortValues(vs []Value) {
	_ = SortValuesContext(context.Background(), vs) // never done, never fails
}

// sortPollEvery is how many keys SortValuesContext builds between checks
// of its context.
const sortPollEvery = 256

// SortValuesContext is SortValues under ctx. It encodes every element's
// order key once into one buffer, sorts the keys, and reorders vs to
// match; elements with equal keys keep their order. It checks ctx every
// sortPollEvery keys, and once ctx is done it returns ctx's error with
// vs unchanged.
func SortValuesContext(ctx context.Context, vs []Value) error {
	if len(vs) < 2 {
		return nil
	}
	type keyed struct {
		key []byte
		v   Value
		i   int
	}
	var e orderKeyEncoder
	var buf []byte
	ends := make([]int, len(vs))
	for i, v := range vs {
		if (i+1)%sortPollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		buf = e.append(buf, v)
		ends[i] = len(buf)
	}
	ks := make([]keyed, len(vs))
	lo := 0
	for i, v := range vs {
		ks[i] = keyed{key: buf[lo:ends[i]], v: v, i: i}
		lo = ends[i]
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := bytes.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	for i := range ks {
		vs[i] = ks[i].v
	}
	return nil
}

// sortedBag returns the bag's elements in total order (a fresh slice).
func sortedBag(b Bag) []Value {
	s := make([]Value, len(b))
	copy(s, b)
	SortValues(s)
	return s
}
