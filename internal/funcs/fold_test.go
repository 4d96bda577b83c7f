package funcs

import (
	"math/rand"
	"testing"

	"sqlpp/internal/value"
)

// TestFoldMergeMatchesSerial: splitting a collection at any point and
// merging the two folds gives the serial fold's result whenever Merge
// accepts, and re-adding the second part's elements after a refusal
// gives it too. Only SUM and AVG may refuse, and only when a Float or a
// magnitude of 2^53 makes a partial inexact.
func TestFoldMergeMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	elem := func() value.Value {
		switch r.Intn(10) {
		case 0:
			return value.Null
		case 1:
			return value.Missing
		case 2:
			return value.Float(r.NormFloat64() * 1e3)
		case 3:
			return value.NewTuple(value.Field{Name: "a", Value: value.Int(r.Int63n(9))})
		case 4:
			return value.Int(1<<53 + r.Int63n(5))
		case 5:
			return value.Float(5)
		default:
			return value.Int(r.Int63n(2000) - 1000)
		}
	}
	for _, op := range []string{"COLL_COUNT", "COLL_SUM", "COLL_AVG", "COLL_MIN", "COLL_MAX"} {
		for trial := 0; trial < 400; trial++ {
			n := r.Intn(12)
			elems := make([]value.Value, n)
			for i := range elems {
				elems[i] = elem()
			}
			if trial%7 == 0 && n > 0 {
				elems[r.Intn(n)] = value.String("x") // SUM/AVG type fault
			}
			serial, _ := NewFold(op)
			for _, e := range elems {
				serial.Add(e)
			}
			cut := 0
			if n > 0 {
				cut = r.Intn(n + 1)
			}
			a, _ := NewFold(op)
			b, _ := NewFold(op)
			for _, e := range elems[:cut] {
				a.Add(e)
			}
			for _, e := range elems[cut:] {
				b.Add(e)
			}
			if !a.Merge(&b) {
				if !a.OrderSensitive() {
					t.Fatalf("%s refused a merge", op)
				}
				for _, e := range elems[cut:] {
					a.Add(e)
				}
			}
			want, wantErr := serial.Result()
			got, gotErr := a.Result()
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("%s %v cut %d: error %v, serial %v", op, elems, cut, gotErr, wantErr)
			}
			if wantErr == nil && got.String() != want.String() {
				t.Fatalf("%s %v cut %d: merged %s, serial %s", op, elems, cut, got, want)
			}
		}
	}
}

// TestFoldMergeExactInts: Int-only SUM/AVG states below 2^53 merge by
// addition.
func TestFoldMergeExactInts(t *testing.T) {
	for _, op := range []string{"COLL_SUM", "COLL_AVG"} {
		a, _ := NewFold(op)
		b, _ := NewFold(op)
		a.Add(value.Int(3))
		b.Add(value.Int(-7))
		if !a.Merge(&b) {
			t.Errorf("%s: exact Int states refused to merge", op)
		}
		c, _ := NewFold(op)
		c.Add(value.Float(0.5))
		if a.Merge(&c) {
			t.Errorf("%s: a Float state merged by addition", op)
		}
	}
}
