package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sqlpp/internal/value"
)

// refSketch is the sketch admission the memoized one replaced: a full
// sketch rescans all k entries for the maximum hash on every new value.
// The memo must keep exactly the same retained set, counts and
// saturated flag.
type refSketch struct {
	m         map[uint64]entry
	saturated bool
}

func newRefSketch() *refSketch { return &refSketch{m: make(map[uint64]entry)} }

func (s *refSketch) add(v value.Value) {
	key := value.Key(v)
	h := hashKey([]byte(key))
	if e, ok := s.m[h]; ok {
		if key < e.key {
			e.key, e.val = key, v
		}
		e.count++
		s.m[h] = e
		return
	}
	if len(s.m) >= sketchK {
		maxH := uint64(0)
		for eh := range s.m {
			if eh > maxH {
				maxH = eh
			}
		}
		if h >= maxH {
			s.saturated = true
			return
		}
		delete(s.m, maxH)
		s.saturated = true
	}
	s.m[h] = entry{key: key, val: v, count: 1}
}

func (s *refSketch) merge(o *refSketch) {
	for h, oe := range o.m {
		if e, ok := s.m[h]; ok {
			if oe.key < e.key {
				e.key, e.val = oe.key, oe.val
			}
			e.count += oe.count
			s.m[h] = e
		} else {
			s.m[h] = oe
		}
	}
	s.saturated = s.saturated || o.saturated
	if len(s.m) > sketchK {
		hashes := make([]uint64, 0, len(s.m))
		for h := range s.m {
			hashes = append(hashes, h)
		}
		sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
		for _, h := range hashes[sketchK:] {
			delete(s.m, h)
		}
		s.saturated = true
	}
}

// sameSketch fails unless got retains exactly ref's entries and flag,
// and its memoized maximum is the maximum of what it retains.
func sameSketch(t *testing.T, what string, got *sketch, ref *refSketch) {
	t.Helper()
	if !reflect.DeepEqual(got.m, ref.m) || got.saturated != ref.saturated {
		t.Fatalf("%s: sketch (%d entries, saturated %v) differs from the rescanning reference (%d entries, saturated %v)",
			what, len(got.m), got.saturated, len(ref.m), ref.saturated)
	}
	if got.maxH != got.scanMax() {
		t.Fatalf("%s: memoized maximum %x, retained maximum %x", what, got.maxH, got.scanMax())
	}
}

// highNDVStream returns n values over about ndv distinct ones of mixed
// kinds, so keys collide across Int and Float and repeat.
func highNDVStream(r *rand.Rand, n, ndv int) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		k := r.Intn(ndv)
		switch k % 4 {
		case 0:
			out[i] = value.Int(int64(k))
		case 1:
			out[i] = value.Float(float64(k)) // equal keys to Int(k)
		case 2:
			out[i] = value.String(fmt.Sprintf("s%d", k))
		default:
			out[i] = value.Array{value.Int(int64(k)), value.Bool(k%8 == 3)}
		}
	}
	return out
}

func rowsOf(vs []value.Value) []value.Value {
	rows := make([]value.Value, len(vs))
	for i, v := range vs {
		rows[i] = row("k", v)
	}
	return rows
}

func refOf(vs []value.Value) *refSketch {
	ref := newRefSketch()
	for _, v := range vs {
		ref.add(v)
	}
	return ref
}

// TestSketchMatchesRescanningReference: over high-NDV streams (far more
// than sketchK distinct values) the memoized sketch equals the
// rescanning one after Build under permuted ingest, after Extended past
// an eviction, and after Merge of saturated sketches.
func TestSketchMatchesRescanningReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		vs := highNDVStream(r, 6000, 300+trial*1500)
		ref := refOf(vs)
		if !ref.saturated {
			t.Fatalf("trial %d: the stream does not saturate the sketch", trial)
		}
		for p := 0; p < 3; p++ {
			perm := make([]value.Value, len(vs))
			for i, j := range r.Perm(len(vs)) {
				perm[i] = vs[j]
			}
			c, err := Build(value.Bag(rowsOf(perm)), nil)
			if err != nil {
				t.Fatal(err)
			}
			sameSketch(t, fmt.Sprintf("trial %d permutation %d: Build", trial, p), c.paths["k"].sk, ref)
		}

		// Extended after the first part has already evicted.
		cut := 1000 + r.Intn(3000)
		head, err := Build(value.Bag(rowsOf(vs[:cut])), nil)
		if err != nil {
			t.Fatal(err)
		}
		sameSketch(t, fmt.Sprintf("trial %d: head", trial), head.paths["k"].sk, refOf(vs[:cut]))
		ext, err := head.Extended(rowsOf(vs[cut:]), nil)
		if err != nil {
			t.Fatal(err)
		}
		sameSketch(t, fmt.Sprintf("trial %d: Extended", trial), ext.paths["k"].sk, ref)
		sameSketch(t, fmt.Sprintf("trial %d: head after Extended", trial), head.paths["k"].sk, refOf(vs[:cut]))

		// Merge of two saturated sketches, then admission after it.
		tail, err := Build(value.Bag(rowsOf(vs[cut:])), nil)
		if err != nil {
			t.Fatal(err)
		}
		refMerged := refOf(vs[:cut])
		refMerged.merge(refOf(vs[cut:]))
		merged := Merge(head, tail)
		sameSketch(t, fmt.Sprintf("trial %d: Merge", trial), merged.paths["k"].sk, refMerged)
		more := highNDVStream(r, 2000, 20000)
		after, err := merged.Extended(rowsOf(more), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range more {
			refMerged.add(v)
		}
		sameSketch(t, fmt.Sprintf("trial %d: Extended after Merge", trial), after.paths["k"].sk, refMerged)
	}
}

// flatRows builds n flat employee rows: a unique name, 20 departments,
// 5 titles and about 150k distinct salaries.
func flatRows(n int) value.Bag {
	r := rand.New(rand.NewSource(1))
	titles := []string{"Engineer", "Manager", "Analyst", "Architect", "Intern"}
	rows := make(value.Bag, n)
	for i := range rows {
		rows[i] = row("name", value.String(fmt.Sprintf("Employee %d", i)),
			"deptno", value.Int(int64(1+r.Intn(20))),
			"title", value.String(titles[r.Intn(len(titles))]),
			"salary", value.Int(int64(50000+r.Intn(150000))))
	}
	return rows
}

// TestBuildAllocs: a statistics build allocates for the values its
// sketches retain and for its paths, not per row or per value. Over 10k
// flat rows of four attributes, two of them near-unique, it makes at
// most one allocation per two rows.
func TestBuildAllocs(t *testing.T) {
	const n = 10000
	rows := flatRows(n)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(rows, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > n/2 {
		t.Fatalf("Build of %d flat rows made %.0f allocations, want at most %d", n, allocs, n/2)
	}
	t.Logf("Build of %d flat rows: %.0f allocations", n, allocs)
}
