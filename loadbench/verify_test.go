package main

import (
	"testing"

	"sqlpp/internal/datafmt"
	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

func mustSION(t *testing.T, src string) value.Value {
	t.Helper()
	v, err := sion.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mustJSON(t *testing.T, v value.Value) []byte {
	t.Helper()
	s, err := datafmt.JSONString(v)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(s)
}

// TestReferenceCheck is the negative control of the reference check:
// bags compare as multisets, arrays in order, and a corrupted answer
// is caught.
func TestReferenceCheck(t *testing.T) {
	ref := `{{ {'title': 'Engineer', 'employees': {{ 'Ada 1', 'Bob 2', 'Cy 3' }}},
	           {'title': 'Manager', 'employees': {{ 'Di 4' }}, 'projects': ['b', 'a']} }}`
	want := newExpected(mustSION(t, ref))
	cases := []struct {
		name   string
		served string
		ok     bool
	}{
		{"same", ref, true},
		{"bags reordered", `{{ {'projects': ['b', 'a'], 'employees': {{ 'Di 4' }}, 'title': 'Manager'},
		                       {'title': 'Engineer', 'employees': {{ 'Cy 3', 'Ada 1', 'Bob 2' }}} }}`, true},
		{"array reordered", `{{ {'title': 'Engineer', 'employees': {{ 'Ada 1', 'Bob 2', 'Cy 3' }}},
		                        {'title': 'Manager', 'employees': {{ 'Di 4' }}, 'projects': ['a', 'b']} }}`, false},
		{"value corrupted", `{{ {'title': 'Engineer', 'employees': {{ 'Ada 1', 'Bob 2', 'Cy 9' }}},
		                        {'title': 'Manager', 'employees': {{ 'Di 4' }}, 'projects': ['b', 'a']} }}`, false},
		{"row missing", `{{ {'title': 'Engineer', 'employees': {{ 'Ada 1', 'Bob 2', 'Cy 3' }}} }}`, false},
		{"row duplicated", `{{ {'title': 'Engineer', 'employees': {{ 'Ada 1', 'Bob 2', 'Cy 3', 'Cy 3' }}},
		                       {'title': 'Manager', 'employees': {{ 'Di 4' }}, 'projects': ['b', 'a']} }}`, false},
		{"field dropped", `{{ {'title': 'Engineer', 'employees': {{ 'Ada 1', 'Bob 2', 'Cy 3' }}},
		                      {'title': 'Manager', 'employees': {{ 'Di 4' }}} }}`, false},
	}
	for _, c := range cases {
		if got := want.matches(mustJSON(t, mustSION(t, c.served))); got != c.ok {
			t.Errorf("%s: matches = %v, want %v", c.name, got, c.ok)
		}
	}
}

// TestReferenceCheckOrdered checks that an ORDER BY answer (an array at
// the top) must keep its order, and that floats compare to 12 digits.
func TestReferenceCheckOrdered(t *testing.T) {
	want := newExpected(mustSION(t, `[{'n': 'a', 'mean': 1.0000000000001}, {'n': 'b', 'mean': 2.5}]`))
	if !want.matches([]byte(`[{"mean": 1, "n": "a"}, {"n": "b", "mean": 2.5}]`)) {
		t.Error("equal ordered answer rejected")
	}
	if want.matches([]byte(`[{"n": "b", "mean": 2.5}, {"n": "a", "mean": 1}]`)) {
		t.Error("reordered ORDER BY answer accepted")
	}
	if want.matches([]byte(`[{"n": "a", "mean": 1.5}, {"n": "b", "mean": 2.5}]`)) {
		t.Error("wrong aggregate accepted")
	}
	if want.matches([]byte(`not json`)) {
		t.Error("malformed reply accepted")
	}
}

// TestVerifyCountsCorruptedReference runs the window check end to end:
// a served answer that disagrees with a corrupted reference is a failed
// operation and makes the run incorrect.
func TestVerifyCountsCorruptedReference(t *testing.T) {
	sc := &exportScan{}
	sc.m = map[string]*expected{"k": newExpected(mustSION(t, `{{ {'name': 'Ada'} }}`))}
	o := &op{kind: kindRead, label: "range", key: "k"}
	good := record{op: o, status: 200, body: []byte(`{"result": [{"name": "Ada"}]}`)}
	bad := record{op: o, status: 200, body: []byte(`{"result": [{"name": "Bob"}]}`)}
	refused := record{op: o, status: 500, body: []byte(`{"error": "boom"}`)}
	v := verify(sc, &window{recs: []record{good, bad, refused}})
	if v.attempted != 3 || v.failed != 2 || v.non2xx != 1 || len(v.reads) != 1 {
		t.Fatalf("attempted=%d failed=%d non2xx=%d reads=%d, want 3/2/1/1", v.attempted, v.failed, v.non2xx, len(v.reads))
	}
}

func TestCrossCheck(t *testing.T) {
	v := &verdict{non2xx: 1}
	if p := crossCheck(map[string]float64{"sqlpp_errors_total": 3}, map[string]float64{"sqlpp_errors_total": 4}, v); len(p) != 0 {
		t.Errorf("agreeing counters reported: %v", p)
	}
	if p := crossCheck(map[string]float64{}, map[string]float64{"sqlpp_errors_total": 2}, v); len(p) != 1 {
		t.Errorf("disagreeing counters not reported: %v", p)
	}
	if p := crossCheck(map[string]float64{}, map[string]float64{"sqlpp_errors_total": 1, "sqlpp_timeouts_total": 2}, v); len(p) != 1 {
		t.Errorf("timeouts beyond errors not reported: %v", p)
	}
}
