package sqlpp_test

import "testing"

// TestStreamedAggregateAllocs guards the streamed GROUP BY and the
// hash-join probe against per-row allocation: over 10k input rows a
// single-group aggregate and join-group allocate at most one value per
// 100 rows, and doubling the rows at 20 groups adds at most that many.
func TestStreamedAggregateAllocs(t *testing.T) {
	allocs := func(rows, depts int, query string) float64 {
		p, err := streamedAggDB(t, rows, depts).Prepare(query)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := p.Exec(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, q := range streamedAggQueries {
		if n := allocs(10000, 1, q.query); n > 10000/100 {
			t.Errorf("%s: %.0f allocations over 10000 rows in one group, want <= 100", q.name, n)
		}
		small, large := allocs(10000, 20, q.query), allocs(20000, 20, q.query)
		if large-small > 10000/100 {
			t.Errorf("%s: 10000 more rows over 20 groups cost %.0f more allocations (%.0f -> %.0f), want <= 100",
				q.name, large-small, small, large)
		}
	}
}
