package value

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeepEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Missing, Missing, true},
		{Null, Null, true},
		{Missing, Null, false},
		{Int(1), Int(1), true},
		{Int(1), Float(1), false}, // DeepEqual is kind-strict
		{String("a"), String("a"), true},
		{Bytes{1, 2}, Bytes{1, 2}, true},
		{Bytes{1, 2}, Bytes{1, 3}, false},
		{Array{Int(1), Int(2)}, Array{Int(1), Int(2)}, true},
		{Array{Int(1), Int(2)}, Array{Int(2), Int(1)}, false}, // order-sensitive
		{Bag{Int(1), Int(2)}, Bag{Int(2), Int(1)}, false},     // DeepEqual keeps bag order
		{
			NewTuple(Field{"a", Int(1)}, Field{"b", Int(2)}),
			NewTuple(Field{"a", Int(1)}, Field{"b", Int(2)}),
			true,
		},
		{
			NewTuple(Field{"a", Int(1)}, Field{"b", Int(2)}),
			NewTuple(Field{"b", Int(2)}, Field{"a", Int(1)}),
			false, // DeepEqual keeps attribute order
		},
	}
	for _, c := range cases {
		if got := DeepEqual(c.a, c.b); got != c.want {
			t.Errorf("DeepEqual(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEquivalent(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Float(1.0), true}, // numeric equivalence
		{Int(1), Float(1.5), false},
		{Bag{Int(1), Int(2)}, Bag{Int(2), Int(1)}, true}, // bags are multisets
		{Bag{Int(1), Int(1)}, Bag{Int(1)}, false},        // multiplicities matter
		{Array{Int(1), Int(2)}, Array{Int(2), Int(1)}, false},
		{
			NewTuple(Field{"a", Int(1)}, Field{"b", Int(2)}),
			NewTuple(Field{"b", Int(2)}, Field{"a", Int(1)}),
			true, // tuples are unordered
		},
		{Null, Missing, false}, // the two absent values stay distinct
		{
			Bag{NewTuple(Field{"x", Bag{Int(1), Int(2)}})},
			Bag{NewTuple(Field{"x", Bag{Int(2), Int(1)}})},
			true, // nested bags too
		},
	}
	for _, c := range cases {
		if got := Equivalent(c.a, c.b); got != c.want {
			t.Errorf("Equivalent(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestContainsEquivalent(t *testing.T) {
	c := []Value{Int(1), String("x")}
	if !ContainsEquivalent(c, Float(1.0)) {
		t.Error("1.0 should be found via numeric equivalence")
	}
	if ContainsEquivalent(c, String("y")) {
		t.Error("'y' should not be found")
	}
}

// Property: DeepEqual implies Equivalent.
func TestDeepEqualImpliesEquivalent(t *testing.T) {
	f := func(a, b genWrap) bool {
		if DeepEqual(a.V, b.V) {
			return Equivalent(a.V, b.V)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// And every value is DeepEqual (hence Equivalent) to itself.
	self := func(a genWrap) bool { return DeepEqual(a.V, a.V) && Equivalent(a.V, a.V) }
	if err := quick.Check(self, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := Bag{
		NewTuple(Field{"a", Array{Int(1), Int(2)}}, Field{"b", Bytes{9}}),
	}
	cl := Clone(orig).(Bag)
	if !DeepEqual(orig, cl) {
		t.Fatal("clone must be deep-equal")
	}
	// Mutate the clone; the original must not change.
	clTup := cl[0].(*Tuple)
	clTup.Set("a", Int(99))
	arr, _ := orig[0].(*Tuple).Get("a")
	if arr.Kind() != KindArray {
		t.Error("mutating clone leaked into original tuple")
	}
	clBytes, _ := clTup.Get("b")
	clBytes.(Bytes)[0] = 7
	origBytes, _ := orig[0].(*Tuple).Get("b")
	if origBytes.(Bytes)[0] != 9 {
		t.Error("mutating cloned bytes leaked into original")
	}
}

// Property: Clone is always deep-equal and never shares mutable state at
// the top level.
func TestCloneProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		v := genValue(r, 3)
		if !DeepEqual(v, Clone(v)) {
			t.Fatalf("clone of %v not deep-equal", v)
		}
	}
}

func TestKeyNumericNormalization(t *testing.T) {
	if Key(Int(1)) != Key(Float(1.0)) {
		t.Error("1 and 1.0 must share a grouping key")
	}
	if Key(Int(1)) == Key(Float(1.5)) {
		t.Error("1 and 1.5 must not share a key")
	}
	if Key(Null) == Key(Missing) {
		t.Error("NULL and MISSING group separately")
	}
	// Very large integers beyond float precision keep exact keys.
	if Key(Int(1<<53+1)) == Key(Int(1<<53)) {
		t.Error("distinct large ints must not collide")
	}
}

// Property: Equivalent and ContainsEquivalent agree with key equality on
// heterogeneous values, including the edges the scalar fast paths must
// hand to the key: 1 vs 1.0, -0.0, NaN, ints at and beyond ±2^53, and
// nested tuples and bags.
func TestEquivalentMatchesKey(t *testing.T) {
	edges := []Value{
		Int(1), Float(1), Float(1.5), Int(0), Float(0), Float(math.Copysign(0, -1)),
		Float(math.NaN()), Float(-math.NaN()), Float(math.Inf(1)),
		Int(1 << 53), Int(1<<53 + 1), Int(-(1 << 53)), Int(-(1<<53 + 1)),
		Float(1 << 53), Float(-(1 << 53)), Float(1<<53 + 2),
		Int(math.MaxInt64), Int(math.MinInt64), Float(math.MaxInt64),
		String(""), String("a"), String("1"), Bool(true), Bool(false), Null, Missing,
		Bytes{}, Bytes{'a'}, Array{Int(1)}, Array{Float(1)}, Bag{Int(1), String("a")}, Bag{String("a"), Float(1)},
		NewTuple(Field{"x", Int(1)}, Field{"y", Bag{Int(2)}}),
		NewTuple(Field{"y", Bag{Float(2)}}, Field{"x", Float(1)}),
		NewTuple(Field{"x", Int(1)}),
	}
	check := func(a, b Value) {
		t.Helper()
		want := Key(a) == Key(b)
		if got := Equivalent(a, b); got != want {
			t.Errorf("Equivalent(%v, %v) = %v, key equality says %v", a, b, got, want)
		}
		if got := ContainsEquivalent([]Value{b}, a); got != want {
			t.Errorf("ContainsEquivalent([%v], %v) = %v, key equality says %v", b, a, got, want)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		a, b := genValue(r, 3), genValue(r, 3)
		check(a, b)
		check(a, a)
		if i%3 == 0 {
			check(a, Clone(a))
		}
	}
	for i := 0; i < 300; i++ {
		c := make([]Value, r.Intn(6))
		for j := range c {
			c[j] = genValue(r, 2)
		}
		v := genValue(r, 2)
		want := false
		for _, e := range c {
			want = want || Key(e) == Key(v)
		}
		if got := ContainsEquivalent(c, v); got != want {
			t.Errorf("ContainsEquivalent(%v, %v) = %v, want %v", c, v, got, want)
		}
	}
}
