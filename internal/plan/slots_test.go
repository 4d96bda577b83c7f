package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"sqlpp/internal/ast"
	"sqlpp/internal/catalog"
	"sqlpp/internal/eval"
	"sqlpp/internal/index"
	"sqlpp/internal/parser"
	"sqlpp/internal/rewrite"
	"sqlpp/internal/value"
)

// slotRows builds n rows {<key>: 0..n-1, grp: i%2}.
func slotRows(n int, key string) value.Bag {
	out := make(value.Bag, 0, n)
	for i := 0; i < n; i++ {
		t := value.EmptyTuple()
		t.Put(key, value.Int(int64(i)))
		t.Put("grp", value.Int(int64(i%2)))
		out = append(out, t)
	}
	return out
}

// slotCatalog holds emp/dept with hash and ordered indexes, plus the
// adversarial three-relation chain l/m/s (3000 x 300 x 10).
func slotCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	emp := value.Bag{}
	for i := 0; i < 8; i++ {
		e := value.EmptyTuple()
		e.Put("id", value.Int(int64(i)))
		e.Put("deptno", value.Int(int64(i%3)))
		e.Put("salary", value.Int(int64(100*i)))
		emp = append(emp, e)
	}
	for name, data := range map[string]value.Value{
		"emp":  emp,
		"dept": slotRows(3, "dno"),
		"l":    slotRows(3000, "x"),
		"m":    slotRows(300, "y"),
		"s":    slotRows(10, "j"),
	} {
		if err := cat.Register(name, data); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range []index.Spec{
		{Name: "emp_id", Collection: "emp", Path: []string{"id"}, Kind: index.Hash},
		{Name: "emp_salary", Collection: "emp", Path: []string{"salary"}, Kind: index.Ordered},
		{Name: "dept_dno", Collection: "dept", Path: []string{"dno"}, Kind: index.Hash},
	} {
		if err := cat.CreateIndex(spec, nil); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// optimizeSlots plans query over cat with compilation on or off and
// returns the rewritten tree and its plan notes.
func optimizeSlots(t *testing.T, cat *catalog.Catalog, query string, compile bool) (ast.Expr, []string) {
	t.Helper()
	tree, err := parser.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	core, err := rewrite.Rewrite(tree, rewrite.Options{Names: cat})
	if err != nil {
		t.Fatalf("rewrite %q: %v", query, err)
	}
	notes := Optimize(core, OptOptions{
		Mode: eval.Permissive, Indexes: cat, Stats: cat, Compile: compile, Funcs: registry, Parallelism: 1,
	})
	return core, notes
}

// slotChecker pairs every AST slot of a physical plan with its closure.
type slotChecker struct {
	t    *testing.T
	ctx  string
	seen map[string]bool
}

func (c *slotChecker) one(kind string, e ast.Expr, f eval.CompiledExpr) {
	if e == nil {
		if f != nil {
			c.t.Errorf("%s: %s slot holds a closure without an expression", c.ctx, kind)
		}
		return
	}
	c.seen[kind] = true
	if f == nil {
		c.t.Errorf("%s: %s slot %s has no closure", c.ctx, kind, e.Pos())
	}
}

func (c *slotChecker) all(kind string, es []ast.Expr, fs []eval.CompiledExpr) {
	if len(es) != len(fs) {
		c.t.Errorf("%s: %s has %d expressions but %d closures", c.ctx, kind, len(es), len(fs))
		return
	}
	for i := range es {
		c.one(kind, es[i], fs[i])
	}
}

func (c *slotChecker) block(q *ast.SFW, phys *sfwPhys) {
	cx := &phys.clauses
	c.all("pre", phys.pre, phys.preC)
	c.all("residual", phys.residual, cx.where)
	lets := make([]ast.Expr, len(q.Lets))
	for i, l := range q.Lets {
		lets[i] = l.Expr
	}
	c.all("let", lets, cx.lets)
	var keys []ast.Expr
	if q.GroupBy != nil {
		for _, k := range q.GroupBy.Keys {
			keys = append(keys, k.Expr)
		}
	}
	c.all("group-key", keys, cx.group)
	c.one("having", q.Having, cx.having)
	c.one("select", q.Select.Value, cx.sel)
	order := make([]ast.Expr, len(q.OrderBy))
	for i, o := range q.OrderBy {
		order[i] = o.Expr
	}
	c.all("order-key", order, cx.order)
	for i := range phys.steps {
		step := &phys.steps[i]
		c.all("pushed", step.filters, step.filtersC)
		var src ast.Expr
		kind := "source"
		switch x := step.item.(type) {
		case *ast.FromExpr:
			src = x.Expr
		case *ast.FromUnpivot:
			src, kind = x.Expr, "unpivot-source"
		}
		if step.hoist {
			kind = "hoisted-" + kind
		}
		c.one(kind, src, step.srcC)
		if h := step.hash; h != nil {
			c.all("probe-key", h.probeKeys, h.probeC)
			c.all("build-key", h.buildKeys, h.buildC)
			c.all("verify", h.verify, h.verifyC)
			if ia := h.buildIdx; ia != nil {
				c.one("index-join-key", ia.eq, ia.eqC)
			}
		}
		if ia := step.idx; ia != nil {
			c.one("index-eq", ia.eq, ia.eqC)
			c.one("index-lo", ia.lo, ia.loC)
			c.one("index-hi", ia.hi, ia.hiC)
		}
	}
}

// adversarialJoin is the worst-first comma join over l/m/s: the cost-based
// planner reorders it when compilation is on.
const adversarialJoin = `SELECT VALUE {'x': l.x, 'y': m.y} FROM l AS l, m AS m, s AS s WHERE l.x = s.j AND m.y = s.j`

// TestEverySlotHoldsAClosure: with compilation on and off alike, every
// expression a physical plan evaluates per row has its closure, so the
// executor never tests a slot for nil. Compilation changes the plan
// notes only by adding "compiled" (one per block) and by admitting join
// reordering.
func TestEverySlotHoldsAClosure(t *testing.T) {
	cat := slotCatalog(t)
	queries := []string{
		// pre, pushed, residual, LET, SELECT, ORDER BY
		`FROM emp AS e, dept AS d LET z = e.id WHERE 1 < 2 AND e.id > d.dno AND z > 0 SELECT VALUE z ORDER BY z`,
		// hash join: probe, build, verify; GROUP BY keys and HAVING
		`SELECT d.dno AS k, COUNT(*) AS n FROM emp AS e, dept AS d WHERE e.deptno + 0 = d.dno + 0 GROUP BY d.dno HAVING COUNT(*) > 0`,
		// index-probed JOIN ... ON
		`SELECT VALUE e.id FROM emp AS e JOIN dept AS d ON e.deptno = d.dno`,
		// index equality and range probes
		`SELECT VALUE e FROM emp AS e WHERE e.id = 3`,
		`SELECT VALUE e FROM emp AS e WHERE e.salary >= 100 AND e.salary < 500`,
		// hoisted scan and hoisted UNPIVOT; correlated UNPIVOT
		`SELECT VALUE [e.id, d.dno, n] FROM emp AS e, dept AS d, UNPIVOT {'a': 1} AS v AT n`,
		`SELECT VALUE n FROM emp AS e, UNPIVOT e AS v AT n`,
		// subquery blocks get their own plans
		`SELECT VALUE (SELECT VALUE d.dno FROM dept AS d WHERE d.dno = e.deptno) FROM emp AS e`,
		adversarialJoin,
	}
	want := []string{
		"pre", "pushed", "residual", "let", "select", "order-key", "group-key", "having",
		"source", "hoisted-source", "unpivot-source", "hoisted-unpivot-source",
		"probe-key", "build-key", "verify", "index-join-key", "index-eq", "index-lo", "index-hi",
	}
	notes := map[bool]map[string][]string{true: {}, false: {}}
	for _, compile := range []bool{true, false} {
		c := &slotChecker{t: t, seen: map[string]bool{}}
		for _, query := range queries {
			c.ctx = fmt.Sprintf("compile=%v %q", compile, query)
			core, ns := optimizeSlots(t, cat, query, compile)
			notes[compile][query] = ns
			ast.Inspect(core, func(e ast.Expr) bool {
				if q, ok := e.(*ast.SFW); ok {
					if phys, ok := q.Phys.(*sfwPhys); ok {
						if phys.compiled != compile {
							t.Errorf("%s: phys.compiled = %v", c.ctx, phys.compiled)
						}
						c.block(q, phys)
					}
				}
				return true
			})
		}
		for _, kind := range want {
			if !c.seen[kind] {
				t.Errorf("compile=%v: no query exercised a %s slot", compile, kind)
			}
		}
	}

	for _, query := range queries {
		on, off := notes[true][query], notes[false][query]
		if query == adversarialJoin {
			if !hasNote(on, "join-order(") || hasNote(off, "join-order(") {
				t.Errorf("adversarial join: want join-order with compilation only\non:  %q\noff: %q", on, off)
			}
			// Reordering rebuilds the step chain, so pushdown, hash-join,
			// estimate and parallel notes follow it; with reordering held
			// off, compilation again adds only "compiled".
			on = func() []string {
				saved := reorderMinCost
				reorderMinCost = math.Inf(1)
				defer func() { reorderMinCost = saved }()
				_, ns := optimizeSlots(t, cat, query, true)
				return ns
			}()
		}
		diff := noteDiff(on, off)
		onlyCompiled := len(diff) > 0
		for _, d := range diff {
			onlyCompiled = onlyCompiled && strings.HasPrefix(d, "+compiled at ")
		}
		if !onlyCompiled {
			t.Errorf("%q: notes with compilation on vs off differ by %q, want only +compiled", query, diff)
		}
	}
}

// noteDiff lists the notes in on but not off ("+note") and in off but not
// on ("-note"), with multiplicity, sorted.
func noteDiff(on, off []string) []string {
	count := map[string]int{}
	for _, n := range on {
		count[n]++
	}
	for _, n := range off {
		count[n]--
	}
	var diff []string
	for n, k := range count {
		for ; k > 0; k-- {
			diff = append(diff, "+"+n)
		}
		for ; k < 0; k++ {
			diff = append(diff, "-"+n)
		}
	}
	sort.Strings(diff)
	return diff
}
