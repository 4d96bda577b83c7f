package funcs

import (
	"strings"

	"sqlpp/internal/value"
)

// The composable aggregates COLL_COUNT, COLL_SUM, COLL_AVG, COLL_MIN and
// COLL_MAX (§V-C) are folds: a running state fed one collection element
// at a time. The COLL_* functions fold their argument's elements; a
// streamed GROUP BY (package plan) folds each group's aggregate
// arguments as rows arrive, without materializing the group. Both go
// through Fold, so absent skipping, one-attribute tuple unwrapping,
// Int/Float summing, first-best MIN/MAX and the type fault of a
// non-numeric SUM/AVG element are one piece of code.

type foldKind uint8

const (
	foldCount foldKind = iota
	foldSum
	foldAvg
	foldMin
	foldMax
)

// exactLimit bounds the magnitudes an exact SUM/AVG state may hold:
// integers below 2^53 are exact float64 values, so every partial float
// sum of such a state is exact whatever the order of the additions.
const exactLimit = 1 << 53

// Fold is the running state of one foldable COLL_* aggregate. The zero
// value is not usable; start from NewFold.
type Fold struct {
	kind foldKind
	op   string
	// n counts the non-absent elements folded.
	n    int64
	sumI int64
	sumF float64
	// isFloat records a Float element (SUM then yields a Float).
	isFloat bool
	// abs is the sum of the Int elements' magnitudes; inexact is set by
	// a Float element or once abs reaches exactLimit, after which float
	// partial sums depend on addition order.
	abs     int64
	inexact bool
	best    value.Value
	// bad is the kind of the first element SUM/AVG could not add; the
	// fold's result is then that type fault.
	bad    value.Kind
	failed bool
}

// NewFold returns the empty fold of the named COLL_* aggregate (any
// case); ok is false for a function that is not a fold.
func NewFold(name string) (f Fold, ok bool) {
	op := strings.ToUpper(name)
	k, ok := foldKinds[op]
	return Fold{kind: k, op: op}, ok
}

var foldKinds = map[string]foldKind{
	"COLL_COUNT": foldCount, "COLL_SUM": foldSum, "COLL_AVG": foldAvg,
	"COLL_MIN": foldMin, "COLL_MAX": foldMax,
}

// Add folds one collection element in. COLL_COUNT counts the non-absent
// elements as they are; the other folds first unwrap a one-attribute
// tuple (unwrapAggElem) and then skip absent values.
func (f *Fold) Add(e value.Value) {
	if f.failed {
		return
	}
	if f.kind != foldCount {
		e = unwrapAggElem(e)
	}
	if value.IsAbsent(e) {
		return
	}
	switch f.kind {
	case foldCount:
	case foldSum, foldAvg:
		switch x := e.(type) {
		case value.Int:
			f.sumI += int64(x)
			f.sumF += float64(x)
			if x <= -exactLimit || x >= exactLimit {
				f.inexact = true
			} else if f.abs += absInt(int64(x)); f.abs >= exactLimit {
				f.inexact = true
			}
		case value.Float:
			f.isFloat, f.inexact = true, true
			f.sumF += float64(x)
		default:
			f.failed, f.bad = true, e.Kind()
			return
		}
	case foldMin, foldMax:
		if f.best == nil || f.better(e, f.best) {
			f.best = e
		}
	}
	f.n++
}

func absInt(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// better reports whether a strictly beats b for MIN/MAX: the first of
// equally extreme elements is kept.
func (f *Fold) better(a, b value.Value) bool {
	c := value.Compare(a, b)
	return (f.kind == foldMax && c > 0) || (f.kind == foldMin && c < 0)
}

// Result is the aggregate's value: NULL over no non-absent element, and
// a type fault (no position; the evaluator fills it in and applies the
// typing mode) when SUM/AVG met a non-numeric element.
func (f *Fold) Result() (value.Value, error) {
	if f.failed {
		return nil, typeErr(f.op, "element is "+f.bad.String())
	}
	switch f.kind {
	case foldCount:
		return value.Int(f.n), nil
	case foldMin, foldMax:
		if f.best == nil {
			return value.Null, nil
		}
		return f.best, nil
	}
	if f.n == 0 {
		return value.Null, nil // SQL: aggregate of empty input is NULL
	}
	if f.kind == foldAvg {
		return value.Float(f.sumF / float64(f.n)), nil
	}
	if f.isFloat {
		return value.Float(f.sumF), nil
	}
	return value.Int(f.sumI), nil
}

// Merge folds o, the state of the elements that follow f's, into f and
// reports whether the merged state equals folding all the elements in
// order. COUNT, MIN and MAX always merge exactly, and so does any state
// pair with a type fault (the first fault wins). SUM and AVG merge only
// while both states are exact; otherwise Merge leaves f unchanged and
// returns false, and the caller must Add o's elements to f in order.
func (f *Fold) Merge(o *Fold) bool {
	if f.failed {
		return true
	}
	if o.failed {
		f.failed, f.bad = true, o.bad
		return true
	}
	switch f.kind {
	case foldMin, foldMax:
		if o.best != nil && (f.best == nil || f.better(o.best, f.best)) {
			f.best = o.best
		}
	case foldSum, foldAvg:
		if f.inexact || o.inexact || f.abs+o.abs >= exactLimit {
			return false
		}
		f.sumI += o.sumI
		f.sumF += o.sumF
		f.abs += o.abs
	}
	f.n += o.n
	return true
}

// OrderSensitive reports whether Merge can refuse: SUM and AVG, whose
// float partial sums depend on the order of the additions.
func (f *Fold) OrderSensitive() bool { return f.kind == foldSum || f.kind == foldAvg }

// Folded is a COLL_* argument that stands for a collection already
// folded as its elements arrived: a streamed GROUP BY binds one for the
// group and for each folded aggregate. The COLL_* folds return
// FoldedResult instead of reading elements.
type Folded interface {
	value.Value
	FoldedResult() (value.Value, error)
}
