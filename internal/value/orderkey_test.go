package value

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refCompare is the comparison-sort definition of the total order that
// Compare had before order keys: tuples compare by their fields sorted
// with refCompare, bags by their elements sorted with refCompare. It is
// the oracle AppendOrderKey and Compare are checked against.
func refCompare(a, b Value) int {
	ca, cb := compareClass(a.Kind()), compareClass(b.Kind())
	if ca != cb {
		return cmpInt(ca, cb)
	}
	switch a.Kind() {
	case KindArray:
		return refCompareSeq(a.(Array), b.(Array))
	case KindBag:
		return refCompareSeq(refSortedBag(a.(Bag)), refSortedBag(b.(Bag)))
	case KindTuple:
		fa, fb := refSortedFields(a.(*Tuple)), refSortedFields(b.(*Tuple))
		for i := 0; i < min(len(fa), len(fb)); i++ {
			if c := strings.Compare(fa[i].Name, fb[i].Name); c != 0 {
				return c
			}
			if c := refCompare(fa[i].Value, fb[i].Value); c != 0 {
				return c
			}
		}
		return cmpInt(len(fa), len(fb))
	}
	return Compare(a, b) // scalars: unchanged by order keys
}

func refCompareSeq(a, b []Value) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if c := refCompare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmpInt(len(a), len(b))
}

func refSortedBag(b Bag) []Value {
	s := append([]Value(nil), b...)
	sort.SliceStable(s, func(i, j int) bool { return refCompare(s[i], s[j]) < 0 })
	return s
}

func refSortedFields(t *Tuple) []Field {
	fs := append([]Field(nil), t.Fields()...)
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Name != fs[j].Name {
			return fs[i].Name < fs[j].Name
		}
		return refCompare(fs[i].Value, fs[j].Value) < 0
	})
	return fs
}

// orderKeyEdges are the values where an order-key encoding is easiest to
// get wrong: signed zeros, NaN and infinities, integers near 2^53 and
// the int64 bounds against floats, NUL bytes, duplicate attribute names
// and nested bags.
func orderKeyEdges() []Value {
	const p53 = 1 << 53
	vs := []Value{
		Missing, Null, False, True,
		Float(0), Float(math.Copysign(0, -1)), Int(0),
		Float(math.NaN()), Float(-math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		Int(math.MinInt64), Int(math.MaxInt64), Int(math.MinInt64 + 1), Int(math.MaxInt64 - 1),
		Float(9.223372036854776e18), Float(-9.223372036854776e18),
		Float(math.MaxFloat64), Float(-math.MaxFloat64), Float(5e-324), Float(-5e-324),
		Float(1.5), Float(-1.5), Int(1), Int(-1), Float(1), Float(-1),
		String(""), String("\x00"), String("\x00\x00"), String("a"), String("a\x00"),
		String("a\x00b"), String("a\x01"), String("\xff"), String("ab"),
		Bytes{}, Bytes{0}, Bytes{0, 0}, Bytes{0, 0xff}, Bytes{1}, Bytes{0xff},
		Array{}, Array{Null}, Array{Int(1)}, Array{Int(1), Int(0)}, Array{Array{}},
		EmptyTuple(),
		NewTuple(Field{"a", Int(1)}, Field{"a", Int(2)}),
		NewTuple(Field{"a", Int(2)}, Field{"a", Int(1)}),
		NewTuple(Field{"a", Int(1)}, Field{"a", Int(1)}),
		NewTuple(Field{"a", Int(1)}),
		NewTuple(Field{"a\x00", Int(1)}),
		NewTuple(Field{"", Null}, Field{"b", String("x")}),
		Bag{}, Bag{Bag{}}, Bag{Bag{}, Bag{}}, Bag{Bag{Int(1), Int(2)}, Bag{Int(2)}},
		Bag{Bag{Int(2), Int(1)}, Bag{Int(2)}}, Bag{Bag{Int(2)}, Bag{Int(2), Int(1)}},
		Bag{Null, Missing}, Bag{Int(1), Float(1)},
	}
	for k := int64(-3); k <= 3; k++ {
		vs = append(vs, Int(p53+k), Int(-p53+k), Float(float64(p53+k)), Float(float64(-p53+k)))
	}
	return vs
}

func checkOrderKey(t *testing.T, a, b Value) {
	t.Helper()
	want := sign(refCompare(a, b))
	if got := sign(bytes.Compare(AppendOrderKey(nil, a), AppendOrderKey(nil, b))); got != want {
		t.Fatalf("order keys of %v and %v compare %d, want %d", a, b, got, want)
	}
	if got := sign(Compare(a, b)); got != want {
		t.Fatalf("Compare(%v, %v) = %d, want %d", a, b, got, want)
	}
}

// TestOrderKeyMatchesCompare checks that bytes.Compare on order keys is
// the total order: on every pair of edge values, on collections built
// from them, and on random nested values.
func TestOrderKeyMatchesCompare(t *testing.T) {
	edges := orderKeyEdges()
	for _, a := range edges {
		for _, b := range edges {
			checkOrderKey(t, a, b)
		}
	}
	r := rand.New(rand.NewSource(11))
	pick := func() Value { return edges[r.Intn(len(edges))] }
	nest := func() Value {
		els := []Value{pick(), pick(), pick()}[:r.Intn(4)]
		switch r.Intn(3) {
		case 0:
			return Array(els)
		case 1:
			return Bag(els)
		}
		tup := EmptyTuple()
		for _, el := range els {
			tup.Put(string(rune('a'+r.Intn(2))), el)
		}
		return tup
	}
	for i := 0; i < 5000; i++ {
		checkOrderKey(t, nest(), nest())
	}
	for i := 0; i < 5000; i++ {
		checkOrderKey(t, genValue(r, 3), genValue(r, 3))
	}
}

// TestOrderKeySortsStable checks the decorate-sort-undecorate sorts
// against stable comparison sorts: Compare-equal values (1 and 1.0,
// tuples with reordered attributes, same-named attributes with equal
// values) must keep their input order, because AppendKey, and through it
// grouping and shard placement, depends on the exact order.
func TestOrderKeySortsStable(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		vs := make([]Value, r.Intn(12))
		tup := EmptyTuple()
		for j := range vs {
			vs[j] = genValue(r, 2)
			tup.Put(string(rune('a'+r.Intn(3))), vs[j])
		}
		want := refSortedBag(Bag(vs))
		SortValues(vs)
		if !DeepEqual(Array(vs), Array(want)) {
			t.Fatalf("SortValues = %v, want %v", vs, want)
		}
		gotFields, wantFields := sortedFields(tup), refSortedFields(tup)
		if !DeepEqual(NewTuple(gotFields...), NewTuple(wantFields...)) {
			t.Fatalf("sortedFields = %v, want %v", gotFields, wantFields)
		}
	}
	ties := []Value{Float(1), Int(1), Float(math.Copysign(0, -1)), Int(0),
		NewTuple(Field{"b", Int(2)}, Field{"a", Int(1)}), NewTuple(Field{"a", Int(1)}, Field{"b", Int(2)})}
	got := append([]Value(nil), ties...)
	SortValues(got)
	if want := refSortedBag(Bag(ties)); !DeepEqual(Array(got), Array(want)) {
		t.Fatalf("ties: SortValues = %v, want %v", got, want)
	}
	dup := NewTuple(Field{"a", Float(1)}, Field{"a", Int(0)}, Field{"a", Int(1)})
	if got, want := sortedFields(dup), refSortedFields(dup); !DeepEqual(NewTuple(got...), NewTuple(want...)) {
		t.Fatalf("ties: sortedFields = %v, want %v", got, want)
	}
}

// TestSortValuesContext checks that a sort under a done context stops
// while it builds keys and leaves its input as it was, and that a slice
// shorter than the poll interval is sorted regardless.
func TestSortValuesContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	big := make([]Value, 1000)
	for i := range big {
		big[i] = Int(int64(len(big) - i))
	}
	before := append([]Value(nil), big...)
	if err := SortValuesContext(ctx, big); !errors.Is(err, context.Canceled) {
		t.Fatalf("SortValuesContext on a cancelled context: err = %v, want context.Canceled", err)
	}
	if !DeepEqual(Array(big), Array(before)) {
		t.Fatal("an interrupted sort reordered its input")
	}
	short := []Value{Int(3), Int(1), Int(2)}
	if err := SortValuesContext(ctx, short); err != nil || !DeepEqual(Array(short), Array{Int(1), Int(2), Int(3)}) {
		t.Fatalf("short slice: %v, %v", short, err)
	}
}
