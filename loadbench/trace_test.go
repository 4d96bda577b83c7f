package main

import "testing"

func TestCovered(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 100, nil, 0},
		{0, 100, [][2]int64{{10, 20}}, 10},
		{0, 100, [][2]int64{{10, 30}, {20, 40}}, 30},
		{0, 100, [][2]int64{{50, 60}, {10, 20}}, 20},
		{10, 50, [][2]int64{{0, 20}, {40, 90}}, 20},
		{0, 100, [][2]int64{{10, 90}, {20, 30}}, 80},
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

// TestSelfTimes checks the self-time derivation on a coordinator-shaped
// trace: a handler whose two overlapping shard calls each contain a
// data-node span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 7, Name: "server.handle", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 7, Name: "shard.call", Start: 10, End: 60},
		{ID: 3, Parent: 1, Op: 7, Name: "shard.call", Start: 20, End: 80},
		{ID: 4, Parent: 2, Op: 7, Name: "datanode.handle", Start: 15, End: 55},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 30, 2: 10, 3: 60, 4: 40}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	r := spanRef{op: 42, id: 9001}
	if got := parseSpanHeader(r.header()); got != r {
		t.Errorf("round trip = %+v, want %+v", got, r)
	}
	if got := parseSpanHeader("garbage"); got != (spanRef{}) {
		t.Errorf("garbage parsed as %+v", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(nil, 0.9); got != 0 {
		t.Errorf("empty p90 = %v", got)
	}
}
