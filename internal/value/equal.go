package value

// DeepEqual reports structural equality, sensitive to element order in
// both arrays and bags and to attribute order in tuples. It is the
// cheapest equality and is what the executor uses when it already
// controls ordering.
func DeepEqual(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch x := a.(type) {
	case missingType, nullType:
		return true
	case Bool:
		return x == b.(Bool)
	case Int:
		return x == b.(Int)
	case Float:
		return x == b.(Float)
	case String:
		return x == b.(String)
	case Bytes:
		y := b.(Bytes)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case Array:
		return deepEqualSeq(x, []Value(b.(Array)))
	case Bag:
		return deepEqualSeq(x, []Value(b.(Bag)))
	case *Tuple:
		y := b.(*Tuple)
		if len(x.fields) != len(y.fields) {
			return false
		}
		for i := range x.fields {
			if x.fields[i].Name != y.fields[i].Name ||
				!DeepEqual(x.fields[i].Value, y.fields[i].Value) {
				return false
			}
		}
		return true
	}
	return false
}

func deepEqualSeq(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Equivalent reports data-model equality: bags compare as multisets,
// tuples compare as multisets of (name, value) attributes, numbers compare
// numerically across Int/Float, and arrays stay order-sensitive. This is
// the equality '=' applies and the one the compatibility kit uses to diff
// query results against expected listings. It agrees exactly with
// Key(a) == Key(b); the Int, String and Bool pairs, whose keys are equal
// exactly when the values are, compare without building the keys.
func Equivalent(a, b Value) bool {
	if eq, ok := scalarEquivalent(a, b); ok {
		return eq
	}
	return Key(a) == Key(b)
}

// scalarEquivalent decides Equivalent for the same-kind Int, String and
// Bool pairs; ok is false for every other pair.
func scalarEquivalent(a, b Value) (eq, ok bool) {
	switch x := a.(type) {
	case Int:
		if y, isInt := b.(Int); isInt {
			return x == y, true
		}
	case String:
		if y, isStr := b.(String); isStr {
			return x == y, true
		}
	case Bool:
		if y, isBool := b.(Bool); isBool {
			return x == y, true
		}
	}
	return false, false
}

// ContainsEquivalent reports whether collection c (array or bag) contains
// an element equivalent to v. v's key is built at most once, and only when
// some element is not a same-kind Int, String or Bool of v.
func ContainsEquivalent(c []Value, v Value) bool {
	var k string
	keyed := false
	for _, e := range c {
		if eq, ok := scalarEquivalent(v, e); ok {
			if eq {
				return true
			}
			continue
		}
		if !keyed {
			k, keyed = Key(v), true
		}
		if Key(e) == k {
			return true
		}
	}
	return false
}
