package plan

import (
	"strconv"
	"strings"

	"sqlpp/internal/ast"
	"sqlpp/internal/eval"
	"sqlpp/internal/funcs"
	"sqlpp/internal/value"
)

// Streamed aggregation (§V-B/C). The rewriter lowers AGG(arg) to
//
//	COLL_AGG(SELECT VALUE arg' FROM $g AS $gi)
//
// over the GROUP AS collection $g, whose elements snapshot each row's
// block variables. When every use of $g in a planned block's SELECT,
// HAVING and ORDER BY is COLL_COUNT($g) or such a COLL_{COUNT,SUM,AVG,
// MIN,MAX} subquery, the group never needs to exist: groupState.add
// evaluates each arg' as its row arrives and folds it into a per-group
// funcs.Fold, and the flushed group binds $g to the group's folds
// instead of its content. Each folded subquery block's Phys is a
// foldRead, so when SELECT (or HAVING, or ORDER BY) evaluates the
// COLL_* call, plan.Run hands back the group's fold for that slot
// rather than running the block, and the COLL_* function returns the
// fold's result.
//
// arg' reads the group element $gi only as $gi.<name>. It runs against
// one reused scratch tuple holding the row's snapshot, bound to $gi, so
// navigation through $gi and the snapshot's governor size are those of
// the materialized path by construction, without a tuple per row.
//
// The streamed path reproduces everything the materialized one makes
// observable: an error evaluating arg' is held and returned when the
// aggregate is read, so the same error (or none) surfaces in the same
// group order; the row charges the governor the snapshot it would have
// kept, and a read replays the output-row charges of the subquery it
// replaces.

// foldPlan is the streamed aggregation of one block: its GROUP AS name
// and one slot per folded aggregate subquery.
type foldPlan struct {
	groupAs string
	slots   []foldSlot
	// calls counts the folded aggregate calls, COLL_COUNT($g) included;
	// it is the n of the stream-agg(n) plan note.
	calls int
}

// foldSlot is one folded aggregate subquery: its empty fold, its element
// variable, and its SELECT VALUE expression, evaluated per input row.
type foldSlot struct {
	fold funcs.Fold
	elem string
	arg  eval.CompiledExpr
}

// foldRead is the Phys of a folded aggregate subquery block.
type foldRead struct {
	groupAs string
	slot    int
}

// planFold decides whether q's aggregates can fold as rows arrive and
// returns the plan, or nil; it marks each subquery block it folds with
// a foldRead, which Optimize then leaves unplanned. Blocks with window
// functions keep materializing (a window can read the group another
// way), and so does any block using its GROUP AS variable outside the
// two folded shapes, including inside a nested block.
func planFold(q *ast.SFW, lower func(ast.Expr) eval.CompiledExpr) *foldPlan {
	if q.GroupBy == nil || q.GroupBy.GroupAs == "" || len(q.Windows) > 0 {
		return nil
	}
	fp := &foldPlan{groupAs: q.GroupBy.GroupAs}
	// post are the names the post-group scope binds: an aggregate
	// argument mentioning one would read it from the group's scope in
	// the materialized path, which does not exist while rows stream.
	post := map[string]bool{fp.groupAs: true}
	for i, k := range q.GroupBy.Keys {
		post[groupKeyAlias(k, i)] = true
	}
	var reads []*ast.SFW
	ok := true
	visit := func(e ast.Expr) bool {
		if !ok {
			return false
		}
		switch x := e.(type) {
		case *ast.VarRef:
			ok = x.Name != fp.groupAs
		case *ast.Call:
			if isGroupCount(x, fp.groupAs) {
				fp.calls++
				return false
			}
			if inner, slot := foldableCall(x, fp.groupAs, post); inner != nil {
				slot.arg = lower(inner.Select.Value)
				fp.slots = append(fp.slots, slot)
				fp.calls++
				reads = append(reads, inner)
				return false
			}
		case *ast.SFW, *ast.PivotQuery, *ast.SetOp, *ast.With:
			ok = !ast.FreeVars(e)[fp.groupAs]
			return false
		}
		return true
	}
	ast.Inspect(q.Select.Value, visit)
	ast.Inspect(q.Having, visit)
	for _, o := range q.OrderBy {
		ast.Inspect(o.Expr, visit)
	}
	if !ok {
		return nil
	}
	for i, r := range reads {
		r.Phys = &foldRead{groupAs: fp.groupAs, slot: i}
	}
	return fp
}

// groupKeyAlias is the name a group key binds in the post-group scope.
func groupKeyAlias(k ast.GroupKey, i int) string {
	if k.Alias != "" {
		return k.Alias
	}
	return "$k" + strconv.Itoa(i+1)
}

// isGroupCount matches COLL_COUNT(g): the group's row count.
func isGroupCount(c *ast.Call, g string) bool {
	if len(c.Args) != 1 || !strings.EqualFold(c.Name, "COLL_COUNT") {
		return false
	}
	ref, isRef := c.Args[0].(*ast.VarRef)
	return isRef && ref.Name == g
}

// foldableCall matches COLL_{COUNT,SUM,AVG,MIN,MAX}(SELECT VALUE a FROM
// g AS gi) with no other clause, where a contains no nested query block
// (its evaluation would open one more nesting level at a different
// point), reads gi only as gi.<name>, and mentions no post-group name.
func foldableCall(c *ast.Call, g string, post map[string]bool) (*ast.SFW, foldSlot) {
	f, isFold := funcs.NewFold(c.Name)
	if !isFold || len(c.Args) != 1 {
		return nil, foldSlot{}
	}
	inner, isSFW := c.Args[0].(*ast.SFW)
	if !isSFW || inner.Select.Value == nil || inner.Select.Distinct || len(inner.From) != 1 ||
		len(inner.Lets) > 0 || inner.Where != nil || inner.GroupBy != nil || inner.Having != nil ||
		len(inner.OrderBy) > 0 || inner.Limit != nil || inner.Offset != nil || len(inner.Windows) > 0 {
		return nil, foldSlot{}
	}
	from, isScan := inner.From[0].(*ast.FromExpr)
	if !isScan || from.AtVar != "" {
		return nil, foldSlot{}
	}
	if ref, isRef := from.Expr.(*ast.VarRef); !isRef || ref.Name != g {
		return nil, foldSlot{}
	}
	gi := from.As
	ok := true
	ast.Inspect(inner.Select.Value, func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.FieldAccess:
			if ref, isRef := x.Base.(*ast.VarRef); isRef && ref.Name == gi {
				return false
			}
		case *ast.VarRef:
			ok = ok && x.Name != gi && !post[x.Name]
		case *ast.SFW, *ast.PivotQuery, *ast.SetOp, *ast.With, *ast.Window:
			ok = false
		}
		return ok
	})
	if !ok {
		return nil, foldSlot{}
	}
	return inner, foldSlot{fold: f, elem: gi}
}

// aggAcc is one group's state for one folded aggregate subquery.
type aggAcc struct {
	fold funcs.Fold
	// argErr is the first error evaluating the aggregate's argument; the
	// materialized subquery would have stopped there, so later rows are
	// not evaluated and reading the aggregate returns it.
	argErr error
	// sizes are the approximate sizes of the argument values the
	// subquery would have output (every non-MISSING one before argErr),
	// run-length encoded; recorded only under a governor, whose output
	// budget a read charges with them.
	sizes []sizeRun
	// keep are those values themselves, retained by the workers of a
	// parallel scan after the first for SUM and AVG, whose inexact
	// states merge by re-folding the later chunk's values in order.
	keep []value.Value
}

type sizeRun struct{ size, n int64 }

// Kind reports the kind of the subquery result the accumulator stands
// for. An aggAcc only ever reaches a COLL_* fold, as its argument.
func (*aggAcc) Kind() value.Kind { return value.KindBag }

// String names the accumulator in diagnostics.
func (*aggAcc) String() string { return "<folded aggregate>" }

// FoldedResult implements funcs.Folded.
func (a *aggAcc) FoldedResult() (value.Value, error) { return a.fold.Result() }

// add folds one argument value in.
func (a *aggAcc) add(v value.Value, gov *eval.Governor, keep bool) {
	if v.Kind() == value.KindMissing {
		return // the subquery's bag output drops it
	}
	if gov != nil {
		a.sizes = appendRun(a.sizes, sizeRun{value.ApproxSize(v), 1})
	}
	if keep {
		a.keep = append(a.keep, v)
	}
	a.fold.Add(v)
}

// merge folds b, the same group's state over the rows that follow a's,
// into a, with the result of folding all the rows in order.
func (a *aggAcc) merge(b *aggAcc) {
	if a.argErr != nil {
		return
	}
	for _, r := range b.sizes {
		a.sizes = appendRun(a.sizes, r)
	}
	if b.argErr != nil {
		a.argErr = b.argErr
		return
	}
	if !a.fold.Merge(&b.fold) {
		for _, v := range b.keep {
			a.fold.Add(v)
		}
	}
}

func appendRun(runs []sizeRun, r sizeRun) []sizeRun {
	if n := len(runs); n > 0 && runs[n-1].size == r.size {
		runs[n-1].n += r.n
		return runs
	}
	return append(runs, r)
}

// read is the value a folded subquery block evaluates to: the group's
// accumulator, after replaying the output-row charges the subquery
// would have made. ok is false when env's group was materialized (the
// clause-materializing executor), in which case the block runs.
func (fr *foldRead) read(ctx *eval.Context, env *eval.Env) (v value.Value, ok bool, err error) {
	gv, _ := env.Lookup(fr.groupAs)
	grp, ok := gv.(*group)
	if !ok {
		return nil, false, nil
	}
	acc := &grp.accs[fr.slot]
	if ctx.Gov != nil {
		for _, r := range acc.sizes {
			// ctxpoll: replays charges of rows already produced and
			// polled; bounded by the group's row count.
			for i := int64(0); i < r.n; i++ {
				if err := ctx.Gov.ChargeOutputSize("select", r.size); err != nil {
					return nil, true, err
				}
			}
		}
	}
	if acc.argErr != nil {
		return nil, true, acc.argErr
	}
	return acc, true, nil
}
