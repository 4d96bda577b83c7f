package plan

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sqlpp/internal/ast"
	"sqlpp/internal/catalog"
	"sqlpp/internal/eval"
	"sqlpp/internal/parser"
	"sqlpp/internal/rewrite"
	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

// aggData builds the streamed-aggregation test catalog: n rows whose
// group key k is sometimes NULL or MISSING, whose v mixes Int, Float,
// NULL and MISSING, whose d adds a string every 97 rows (SUM's type
// fault), whose big holds ints beyond 2^53, whose one is a one-attribute
// tuple, whose s mixes strings with ints (MIN/MAX across kinds) and
// whose e ties 5 with 5.0 (MIN/MAX keep the first) and whose f holds
// inexact floats; plus a dept table for join-groups.
func aggData(n int) map[string]string {
	var sb strings.Builder
	sb.WriteString("{{")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "{'i': %d", i)
		switch {
		case i%50 == 49:
		case i%60 == 59:
			sb.WriteString(", 'k': null")
		default:
			fmt.Fprintf(&sb, ", 'k': %d", i%7)
		}
		switch {
		case i%17 == 16:
		case i%13 == 12:
			sb.WriteString(", 'v': null")
		case i%11 == 10:
			fmt.Fprintf(&sb, ", 'v': %g", float64(i)/4+0.1)
		default:
			fmt.Fprintf(&sb, ", 'v': %d", (i*37)%1000-300)
		}
		if i%97 == 96 {
			sb.WriteString(", 'd': 'n/a'")
		} else {
			fmt.Fprintf(&sb, ", 'd': %d", i%10)
		}
		if i%7 == 3 {
			fmt.Fprintf(&sb, ", 'big': %d", -(int64(1)<<53)-int64(i))
		} else {
			fmt.Fprintf(&sb, ", 'big': %d", int64(1)<<53-5+int64(i%11))
		}
		if i%19 == 18 {
			sb.WriteString(", 'one': {'a': null}")
		} else {
			fmt.Fprintf(&sb, ", 'one': {'a': %d}", i%5)
		}
		if i%23 == 22 {
			fmt.Fprintf(&sb, ", 's': %d", i)
		} else {
			fmt.Fprintf(&sb, ", 's': 'n%d'", (i*7)%101)
		}
		if i%2 == 0 {
			sb.WriteString(", 'e': 5")
		} else {
			sb.WriteString(", 'e': 5.0")
		}
		fmt.Fprintf(&sb, ", 'f': %g}", float64(i%13)*0.1+float64(i)*1e-3)
	}
	sb.WriteString("}}")
	return map[string]string{
		"t": sb.String(),
		"dept": `{{ {'k': 0, 'name': 'D0'}, {'k': 1, 'name': 'D1'}, {'k': 2.0, 'name': 'D2'},
			{'k': 3, 'name': 'D3'}, {'k': 3, 'name': 'D3b'}, {'k': 5, 'name': 'D5'}, {'k': null, 'name': 'DN'} }}`,
	}
}

// aggRunner executes queries over one catalog under chosen options.
type aggRunner struct {
	cat *catalog.Catalog
}

func newAggRunner(t *testing.T, data map[string]string) *aggRunner {
	t.Helper()
	cat := catalog.New()
	for name, src := range data {
		if err := cat.Register(name, sion.MustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	return &aggRunner{cat: cat}
}

type aggOpts struct {
	strict, compat, optimize, compile bool
	parallelism                       int
	lim                               eval.Limits
}

// run returns the query's outcome as text (its rendering, or its error
// text) with the plan notes and the error itself.
func (r *aggRunner) run(t *testing.T, query string, o aggOpts) (string, []string, error) {
	t.Helper()
	out, notes, _, err := r.runGoverned(t, query, o)
	return out, notes, err
}

// runGoverned is run that also returns the execution's governor.
func (r *aggRunner) runGoverned(t *testing.T, query string, o aggOpts) (string, []string, *eval.Governor, error) {
	t.Helper()
	tree, err := parser.Parse(query)
	if err != nil {
		t.Fatalf("parse %s: %v", query, err)
	}
	core, err := rewrite.Rewrite(tree, rewrite.Options{Compat: o.compat, Names: r.cat})
	if err != nil {
		t.Fatalf("rewrite %s: %v", query, err)
	}
	mode := eval.Permissive
	if o.strict {
		mode = eval.StopOnError
	}
	var notes []string
	if o.optimize {
		notes = Optimize(core, OptOptions{Mode: mode, Compat: o.compat, Compile: o.compile, Funcs: registry, Parallelism: o.parallelism})
	}
	gov := eval.NewGovernor(o.lim)
	ctx := &eval.Context{Mode: mode, Compat: o.compat, Names: r.cat, Funcs: registry, Run: Run,
		Parallelism: o.parallelism, Gov: gov}
	v, err := Run(ctx, eval.NewEnv(), core)
	if err != nil {
		return "error: " + err.Error(), notes, gov, err
	}
	return v.String(), notes, gov, nil
}

// streamed reports whether the outermost block (at 1:1) folds.
func streamed(notes []string) bool {
	for _, n := range notes {
		if strings.HasPrefix(n, "stream-agg(") && strings.HasSuffix(n, " at 1:1") {
			return true
		}
	}
	return false
}

// aggCase is one eligible query, split so the forced-materialization
// form can add a GROUP AS variable used outside an aggregate.
type aggCase struct {
	name string
	// q is SELECT ... FROM ... [WHERE ...] [GROUP BY ...], without
	// GROUP AS; having and order are optional clause bodies.
	q, having, order string
	// implicit marks a q without GROUP BY; the materialized form then
	// groups by a constant, which matches only over non-empty input.
	implicit, empty bool
}

// streamedQuery and materializedQuery keep HAVING and ORDER BY at the
// same columns, so an error's position reads the same in both.
func (c aggCase) streamedQuery() string {
	q, prefix, suffix := c.q, c.matPrefix(), c.matSuffix()
	if c.having != "" {
		q += strings.Repeat(" ", len(prefix)-len(" HAVING ")) + " HAVING " + c.having + strings.Repeat(" ", len(suffix))
	} else {
		q += strings.Repeat(" ", len(prefix))
	}
	return q + c.orderBy()
}

// materializedQuery uses the group variable in HAVING (always TRUE), so
// the block keeps its GROUP AS collection and runs the aggregate
// subqueries over it.
func (c aggCase) materializedQuery() string {
	return c.q + c.matPrefix() + c.having + c.matSuffix() + c.orderBy()
}

func (c aggCase) matPrefix() string {
	p := " GROUP AS gg HAVING gg IS NOT MISSING"
	if c.implicit {
		p = " GROUP BY 0 AS zz" + p
	}
	if c.having != "" {
		p += " AND ("
	}
	return p
}

func (c aggCase) matSuffix() string {
	if c.having != "" {
		return ")"
	}
	return ""
}

func (c aggCase) orderBy() string {
	if c.order == "" {
		return ""
	}
	return " ORDER BY " + c.order
}

var aggCases = []aggCase{
	{name: "mixed", q: "SELECT k AS k, COUNT(*) AS n, COUNT(t.v) AS nv, SUM(t.v) AS s, AVG(t.v) AS a, MIN(t.v) AS lo, MAX(t.v) AS hi FROM t AS t GROUP BY t.k AS k"},
	{name: "dirty-sum", q: "SELECT k AS k, SUM(t.d) AS s, AVG(t.d) AS a, MAX(t.d) AS m FROM t AS t GROUP BY t.k AS k"},
	{name: "big-ints", q: "SELECT k AS k, SUM(t.big) AS s, AVG(t.big) AS a, MIN(t.big) AS lo FROM t AS t GROUP BY t.k AS k"},
	{name: "floats", q: "SELECT k AS k, SUM(t.f) AS s, AVG(t.f) AS a, SUM(t.f + t.v) AS sv FROM t AS t GROUP BY t.k AS k"},
	{name: "one-attr", q: "SELECT k AS k, SUM(t.one) AS s, MAX(t.one) AS m, COUNT(t.one) AS c FROM t AS t GROUP BY t.k AS k"},
	{name: "ties", q: "SELECT k AS k, MIN(t.e) AS lo, MAX(t.e) AS hi FROM t AS t WHERE t.i % 512 > 200 GROUP BY t.k AS k"},
	{name: "strings", q: "SELECT k AS k, MIN(t.s) AS lo, MAX(t.s) AS hi FROM t AS t WHERE t.i > 100 GROUP BY t.k AS k"},
	{name: "having-order", q: "SELECT k AS k, AVG(t.v) AS a FROM t AS t GROUP BY t.k AS k",
		having: "COUNT(*) > 100 AND SUM(t.v) > 0", order: "AVG(t.v) DESC, k"},
	{name: "order-top", q: "SELECT k AS k, MAX(t.i) AS m FROM t AS t GROUP BY t.k AS k", order: "SUM(t.d) DESC, k LIMIT 3"},
	{name: "join-group", q: "SELECT d.name AS name, COUNT(*) AS n, AVG(t.v) AS a, MIN(t.i) AS lo FROM t AS t JOIN dept AS d ON t.k = d.k WHERE t.i >= 200 GROUP BY d.name AS name"},
	{name: "two-keys", q: "SELECT k AS k, m AS m, SUM(t.i) AS s FROM t AS t GROUP BY t.k AS k, t.i % 3 AS m"},
	// Stop-on-error: in group 0 an argument error (||) follows a fold
	// error ('n/a'), and the argument error wins; in group 3 only an
	// argument error, held until group 3 is read.
	{name: "arg-error", q: "SELECT k AS k, SUM(CASE WHEN t.k = 0 AND t.i > 1000 THEN t.v || 'x' ELSE t.d END) AS s FROM t AS t GROUP BY t.k AS k"},
	{name: "arg-error-later-group", q: "SELECT k AS k, MAX(t.i) AS m, SUM(CASE WHEN t.k = 3 AND t.i > 1000 THEN t.v || 'x' ELSE t.i END) AS s FROM t AS t GROUP BY t.k AS k"},
	{name: "implicit", q: "SELECT COUNT(*) AS n, SUM(t.v) AS s, MAX(t.s) AS m FROM t AS t", implicit: true},
	{name: "implicit-empty", q: "SELECT COUNT(*) AS n, SUM(t.v) AS s FROM t AS t WHERE t.i < 0", implicit: true, empty: true},
}

// TestStreamedAggregateIdentity runs every eligible query streamed,
// through the naive pipeline, and with its group materialized, in
// permissive, stop-on-error and compat modes, compiled or not, and
// sequential or parallel: all three must produce the same bytes or the
// same error text.
func TestStreamedAggregateIdentity(t *testing.T) {
	lowerParallelThreshold(t, 64)
	r := newAggRunner(t, aggData(1500))
	modes := []aggOpts{{}, {strict: true}, {compat: true}}
	for _, c := range aggCases {
		for _, m := range modes {
			for _, par := range []int{1, 4} {
				for _, compile := range []bool{true, false} {
					o := m
					o.parallelism, o.compile = par, compile
					label := fmt.Sprintf("%s strict=%v compat=%v par=%d compile=%v", c.name, o.strict, o.compat, par, compile)
					o.optimize = true
					got, notes, _ := r.run(t, c.streamedQuery(), o)
					if !streamed(notes) {
						t.Fatalf("%s: not streamed, notes %v", label, notes)
					}
					o.optimize = false
					naive, _, _ := r.run(t, c.streamedQuery(), o)
					if got != naive {
						t.Errorf("%s: streamed differs from naive:\n  streamed %s\n  naive    %s", label, got, naive)
					}
					if c.empty {
						continue
					}
					o.optimize = true
					mat, notes, _ := r.run(t, c.materializedQuery(), o)
					if streamed(notes) {
						t.Fatalf("%s: materialized form streamed, notes %v", label, notes)
					}
					if got != mat {
						t.Errorf("%s: streamed differs from materialized:\n  streamed     %s\n  materialized %s", label, got, mat)
					}
				}
			}
		}
	}
}

// TestStreamedAggregateGovernor: under budgets that trip at the group's
// rows, at the aggregate reads, and at the nesting depth of the
// aggregate subqueries, a streamed block fails with the same
// ResourceError — kind, site and observed amount — as the materialized
// one, and passes exactly when it passes, having charged the same rows,
// values and bytes.
func TestStreamedAggregateGovernor(t *testing.T) {
	r := newAggRunner(t, aggData(600))
	limits := []eval.Limits{
		{MaxOutputRows: 40},
		{MaxOutputRows: 150},
		{MaxMaterializedValues: 300},
		{MaxMaterializedBytes: 20000},
		{MaxMaterializedBytes: 150000},
		{MaxMaterializedBytes: 210000},
		{MaxMaterializedBytes: 230000},
		{MaxMaterializedBytes: 260000},
		{MaxMaterializedBytes: 400000},
		{MaxDepth: 1},
		{MaxDepth: 2},
		{MaxOutputRows: 1 << 40, MaxMaterializedValues: 1 << 40, MaxMaterializedBytes: 1 << 50},
	}
	for _, c := range aggCases {
		if c.empty {
			continue
		}
		for _, lim := range limits {
			for _, strict := range []bool{false, true} {
				o := aggOpts{optimize: true, compile: true, parallelism: 1, lim: lim, strict: strict}
				label := fmt.Sprintf("%s %+v strict=%v", c.name, lim, strict)
				got, _, gotGov, gotErr := r.runGoverned(t, c.streamedQuery(), o)
				mat, _, matGov, matErr := r.runGoverned(t, c.materializedQuery(), o)
				if got != mat {
					t.Errorf("%s:\n  streamed     %s\n  materialized %s", label, got, mat)
				}
				if gotErr == nil && matErr == nil {
					gr, gv, gb := gotGov.Usage()
					mr, mv, mb := matGov.Usage()
					if gr != mr || gv != mv || gb != mb {
						t.Errorf("%s: charged rows/values/bytes %d/%d/%d, materialized %d/%d/%d", label, gr, gv, gb, mr, mv, mb)
					}
				}
				var gre, mre *eval.ResourceError
				if errors.As(gotErr, &gre) != errors.As(matErr, &mre) {
					t.Errorf("%s: resource errors differ: %v vs %v", label, gotErr, matErr)
				} else if gre != nil && (gre.Kind != mre.Kind || gre.Site != mre.Site || gre.Observed != mre.Observed) {
					t.Errorf("%s: resource error %+v, materialized %+v", label, *gre, *mre)
				}
			}
		}
	}
}

// TestStreamedAggregateEligibility pins which blocks fold: DISTINCT
// aggregates, a GROUP AS variable read another way (directly, in a
// nested block, or by a window), and argument expressions reading the
// group element whole or holding a nested block all keep the
// materializing path.
func TestStreamedAggregateEligibility(t *testing.T) {
	cases := []struct {
		query string
		want  bool
	}{
		{"SELECT k AS k, COUNT(*) AS n FROM t AS t GROUP BY t.k AS k", true},
		{"SELECT k AS k FROM t AS t GROUP BY t.k AS k", true},
		{"SELECT VALUE COLL_SUM((SELECT VALUE g2.t.v FROM g AS g2)) FROM t AS t GROUP BY t.k AS k GROUP AS g", true},
		{"SELECT k AS k, COUNT(DISTINCT t.v) AS n FROM t AS t GROUP BY t.k AS k", false},
		{"SELECT k AS k, g AS g FROM t AS t GROUP BY t.k AS k GROUP AS g", false},
		{"SELECT k AS k, (SELECT VALUE COUNT(*) FROM g AS x) AS n FROM t AS t GROUP BY t.k AS k GROUP AS g", false},
		{"SELECT VALUE COLL_COUNT((SELECT VALUE g2 FROM g AS g2)) FROM t AS t GROUP BY t.k AS k GROUP AS g", false},
		{"SELECT k AS k, SUM((SELECT VALUE 1 FROM [1] AS o)[0]) AS s FROM t AS t GROUP BY t.k AS k", false},
		{"SELECT k AS k, SUM(t.v) AS s, RANK() OVER (ORDER BY SUM(t.v)) AS r FROM t AS t GROUP BY t.k AS k", false},
		// The inner block folds; its first argument names the second
		// slot's element variable, which must still resolve to the outer y.
		{"SELECT VALUE (SELECT VALUE [COLL_SUM((SELECT VALUE x.t.i + y FROM g AS x)), COLL_MAX((SELECT VALUE y.t.i FROM g AS y))] " +
			"FROM t AS t GROUP BY t.k AS k GROUP AS g) FROM [100] AS y", false},
	}
	r := newAggRunner(t, aggData(50))
	for _, c := range cases {
		o := aggOpts{optimize: true, compile: true, parallelism: 1}
		got, notes, _ := r.run(t, c.query, o)
		if streamed(notes) != c.want {
			t.Errorf("%s: streamed=%v, want %v (notes %v)", c.query, streamed(notes), c.want, notes)
		}
		o.optimize = false
		if naive, _, _ := r.run(t, c.query, o); naive != got {
			t.Errorf("%s: differs from naive:\n  got   %s\n  naive %s", c.query, got, naive)
		}
	}
}

// TestFoldedSubqueryUnderMaterializedClauses: the clause-materializing
// executor keeps GROUP AS content, so a folded subquery block runs as a
// block there.
func TestFoldedSubqueryUnderMaterializedClauses(t *testing.T) {
	r := newAggRunner(t, aggData(200))
	q := aggCases[0].streamedQuery()
	tree, err := parser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	core, err := rewrite.Rewrite(tree, rewrite.Options{Names: r.cat})
	if err != nil {
		t.Fatal(err)
	}
	Optimize(core, OptOptions{Compile: true, Funcs: registry})
	folded := 0
	ast.Inspect(core, func(e ast.Expr) bool {
		if q, ok := e.(*ast.SFW); ok {
			if _, ok := q.Phys.(*foldRead); ok {
				folded++
			}
		}
		return true
	})
	if folded != 5 {
		t.Fatalf("folded subquery blocks = %d, want 5", folded)
	}
	run := func(materialize bool) value.Value {
		ctx := &eval.Context{Names: r.cat, Funcs: registry, Run: Run, MaterializeClauses: materialize}
		v, err := Run(ctx, eval.NewEnv(), core)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if a, b := run(false), run(true); a.String() != b.String() {
		t.Errorf("materialized clauses diverge:\n  %s\n  %s", a, b)
	}
}
