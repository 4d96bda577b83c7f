package plan

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sqlpp/internal/ast"
	"sqlpp/internal/eval"
	"sqlpp/internal/faultinject"
	"sqlpp/internal/index"
	"sqlpp/internal/value"
)

// hoistSource evaluates a hoisted (uncorrelated) source once and charges
// its materialization: unlike a streamed scan, a hoisted source is held
// for the lifetime of the block, so its full size counts against the
// governor's materialization budget.
func hoistSource(ctx *eval.Context, outer *eval.Env, srcC eval.CompiledExpr) (value.Value, error) {
	src, err := srcC(ctx, outer)
	if err != nil {
		return nil, err
	}
	if ctx.Gov != nil {
		n := int64(1)
		switch s := src.(type) {
		case value.Array:
			n = int64(len(s))
		case value.Bag:
			n = int64(len(s))
		}
		if err := ctx.Gov.ChargeValues("hoist", n, src); err != nil {
			return nil, err
		}
	}
	return src, nil
}

// produceFrom streams the binding environments of a FROM clause to k.
// With no FROM items the block evaluates its remaining clauses over a
// single empty binding (SELECT VALUE 1+1 works), matching the functional
// pipeline reading of a query block.
//
// Comma-separated items are correlated cross products: each item's source
// expression is evaluated in the environment produced by the items to its
// left (left correlation, §III).
func produceFrom(ctx *eval.Context, outer *eval.Env, items []ast.FromItem, k emit) error {
	if len(items) == 0 {
		return k(outer.Child())
	}
	return produceItems(ctx, outer, items, 0, k)
}

func produceItems(ctx *eval.Context, env *eval.Env, items []ast.FromItem, i int, k emit) error {
	if i == len(items) {
		return k(env)
	}
	return produceItem(ctx, env, items[i], func(child *eval.Env) error {
		return produceItems(ctx, child, items, i+1, k)
	})
}

// produceItem streams the bindings of a single FROM item, each in a new
// child environment of env.
func produceItem(ctx *eval.Context, env *eval.Env, item ast.FromItem, k emit) error {
	if ctx.Stats != nil {
		n := itemNode(ctx, item)
		k = countOut(n, k)
		defer n.Timer()()
	}
	switch x := item.(type) {
	case *ast.FromExpr:
		return produceScan(ctx, env, x, k)
	case *ast.FromUnpivot:
		return produceUnpivot(ctx, env, x, k)
	case *ast.FromJoin:
		return produceJoin(ctx, env, x, k)
	}
	return fmt.Errorf("plan: unknown FROM item %T", item)
}

// countOut wraps k to count each binding it passes as a row out of n.
func countOut(n *eval.StatsNode, k emit) emit {
	return func(child *eval.Env) error {
		n.AddOut(1)
		return k(child)
	}
}

// produceScan ranges a variable over a source value. SQL++ relaxes the
// SQL rule that sources are collections of tuples: any collection works,
// and its elements bind as-is (§III-A). A non-collection source is a
// single binding in permissive mode and an error in stop-on-error mode;
// a MISSING source produces no bindings.
func produceScan(ctx *eval.Context, env *eval.Env, x *ast.FromExpr, k emit) error {
	src, err := eval.Eval(ctx, env, x.Expr)
	if err != nil {
		return err
	}
	return scanValue(ctx, env, x, src, k)
}

// scanValue binds x's variables over an already-evaluated source value;
// the physical plan reuses it with a hoisted source.
func scanValue(ctx *eval.Context, env *eval.Env, x *ast.FromExpr, src value.Value, k emit) error {
	if ctx.Stats != nil {
		n := itemNode(ctx, x)
		switch s := src.(type) {
		case value.Array:
			n.AddIn(int64(len(s)))
		case value.Bag:
			n.AddIn(int64(len(s)))
		default:
			if src.Kind() != value.KindMissing {
				n.AddIn(1)
			}
		}
	}
	// Scans are the row-production loops of every query block (cross
	// products and joins nest them), so this is where a deadline or
	// cancellation cooperatively stops a runaway query.
	bind := func(v value.Value, ordinal value.Value) error {
		if faultinject.Enabled {
			if err := faultinject.Fire(faultinject.ScanNext); err != nil {
				return err
			}
		}
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		child := env.Child()
		child.Bind(x.As, v)
		if x.AtVar != "" {
			child.Bind(x.AtVar, ordinal)
		}
		return k(child)
	}
	switch s := src.(type) {
	case value.Array:
		for i, v := range s {
			if err := bind(v, value.Int(int64(i))); err != nil {
				return err
			}
		}
		return nil
	case value.Bag:
		// Bags are unordered: AT binds MISSING.
		for _, v := range s {
			if err := bind(v, value.Missing); err != nil {
				return err
			}
		}
		return nil
	default:
		if src.Kind() == value.KindMissing {
			return nil
		}
		if ctx.Mode == eval.StopOnError {
			return &eval.TypeError{Pos: x.Pos(), Op: "FROM", Detail: "source is " + src.Kind().String() + ", not a collection"}
		}
		// Permissive: a non-collection source is a singleton binding.
		return bind(src, value.Missing)
	}
}

// produceUnpivot turns a tuple's attributes into bindings (§VI-A):
// UNPIVOT expr AS v AT n binds v to each attribute value and n to its
// name. In permissive mode a non-tuple source behaves like the tuple
// {'_1': source}; MISSING produces no bindings.
func produceUnpivot(ctx *eval.Context, env *eval.Env, x *ast.FromUnpivot, k emit) error {
	src, err := eval.Eval(ctx, env, x.Expr)
	if err != nil {
		return err
	}
	return unpivotValue(ctx, env, x, src, k)
}

// unpivotValue binds x's variables over an already-evaluated source
// tuple; the physical plan reuses it with a hoisted source.
func unpivotValue(ctx *eval.Context, env *eval.Env, x *ast.FromUnpivot, src value.Value, k emit) error {
	if ctx.Stats != nil {
		n := itemNode(ctx, x)
		if t, ok := src.(*value.Tuple); ok {
			n.AddIn(int64(len(t.Fields())))
		} else if src.Kind() != value.KindMissing {
			n.AddIn(1)
		}
	}
	bind := func(name string, v value.Value) error {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		child := env.Child()
		child.Bind(x.ValueVar, v)
		child.Bind(x.NameVar, value.String(name))
		return k(child)
	}
	switch t := src.(type) {
	case *value.Tuple:
		for _, f := range t.Fields() {
			if err := bind(f.Name, f.Value); err != nil {
				return err
			}
		}
		return nil
	default:
		if src.Kind() == value.KindMissing {
			return nil
		}
		if ctx.Mode == eval.StopOnError {
			return &eval.TypeError{Pos: x.Pos(), Op: "UNPIVOT", Detail: "source is " + src.Kind().String() + ", not a tuple"}
		}
		return bind("_1", src)
	}
}

// produceJoin evaluates an explicit JOIN. The right side is evaluated
// laterally (it may reference left-side variables). LEFT JOIN emits a
// binding with the right side's variables bound to NULL when no right
// binding satisfies the ON condition.
func produceJoin(ctx *eval.Context, env *eval.Env, x *ast.FromJoin, k emit) error {
	var pads *atomic.Int64
	if ctx.Stats != nil && x.Kind == ast.JoinLeft {
		pads = itemNode(ctx, x).Counter("left_pads")
	}
	return produceItem(ctx, env, x.Left, func(left *eval.Env) error {
		matched := false
		err := produceItem(ctx, left, x.Right, func(right *eval.Env) error {
			if x.On != nil {
				cond, err := eval.Eval(ctx, right, x.On)
				if err != nil {
					return err
				}
				if !eval.IsTrue(cond) {
					return nil
				}
			}
			matched = true
			return k(right)
		})
		if err != nil {
			return err
		}
		if !matched && x.Kind == ast.JoinLeft {
			if pads != nil {
				pads.Add(1)
			}
			padded := left.Child()
			for _, name := range ast.ItemVars(x.Right) {
				padded.Bind(name, value.Null)
			}
			return k(padded)
		}
		return nil
	})
}

// physState is the per-invocation runtime of a block's physical plan:
// lazily hoisted sources and hash tables, indexed by step. The lazy
// cells synchronize on sync.Once so the workers of a parallel scan can
// share one physState — whichever binding first needs a hoisted source
// or a hash table builds it, and a source the naive plan would never
// evaluate (empty left side) is still never evaluated.
type physState struct {
	phys    *sfwPhys
	outer   *eval.Env
	sources []lazyValue
	tables  []lazyTable
	idxs    []lazyIndex
	// preFilter and stats are the pre-resolved EXPLAIN ANALYZE nodes and
	// counters, nil when instrumentation is off. Resolving once here
	// keeps the per-row work to nil tests and atomic adds even in
	// parallel workers, which share this physState.
	preFilter *eval.StatsNode
	stats     []stepStats
	// ord, non-nil only under a reordered chain (which is never
	// parallel), records per step the source ordinal of its current
	// binding; the reorder buffer reads it to key each produced row.
	ord []int64
}

// stepStats is one FROM step's pre-resolved instrumentation.
type stepStats struct {
	node   *eval.StatsNode // the step's scan/unpivot/join/hash-join node
	filter *eval.StatsNode // pushed-filter node, nil when no filters
	// hash-join hot counters (nil for non-hash steps).
	candidates *atomic.Int64
	verified   *atomic.Int64
	pads       *atomic.Int64
	// index-probe hot counters (nil unless the step probes an index).
	probes *atomic.Int64
	hits   *atomic.Int64
	// left is a hash join's plain-scan probe side (nil otherwise).
	left *eval.StatsNode
}

func newPhysState(ctx *eval.Context, phys *sfwPhys, outer *eval.Env) *physState {
	st := &physState{
		phys:    phys,
		outer:   outer,
		sources: make([]lazyValue, len(phys.steps)),
		tables:  make([]lazyTable, len(phys.steps)),
		idxs:    make([]lazyIndex, len(phys.steps)),
	}
	if ctx.Stats != nil {
		parent := statsParent(ctx)
		if len(phys.pre) > 0 {
			st.preFilter = ctx.Stats.Node(parent, phys, "pre", "filter", "pre")
		}
		st.stats = make([]stepStats, len(phys.steps))
		for i := range phys.steps {
			step := &phys.steps[i]
			ss := &st.stats[i]
			if step.hash != nil {
				ss.node = hashNode(ctx, parent, step.hash)
				ss.candidates = ss.node.Counter("candidates")
				ss.verified = ss.node.Counter("verified")
				if step.hash.leftJoin {
					ss.pads = ss.node.Counter("left_pads")
				}
				if step.hash.buildIdx != nil {
					ss.probes = ss.node.Counter("probes")
					ss.hits = ss.node.Counter("hits")
				}
				if step.hash.estBuild >= 0 {
					ss.node.Counter("est_build").Store(step.hash.estBuild)
				}
				if step.hash.estOut >= 0 {
					ss.node.Counter("est_rows").Store(step.hash.estOut)
				}
				if _, ok := step.hash.left.(*ast.FromExpr); ok {
					ss.left = itemNode(ctx, step.hash.left)
				}
			} else if step.idx != nil {
				ss.node = indexNode(ctx, parent, step)
				ss.probes = ss.node.Counter("probes")
				ss.hits = ss.node.Counter("hits")
				if step.idx.estRows >= 0 {
					ss.node.Counter("est_rows").Store(step.idx.estRows)
				}
			} else {
				op, label := describeItem(step.item)
				ss.node = ctx.Stats.Node(parent, step.item, "item", op, label)
				if step.estSrc >= 0 {
					ss.node.Counter("est_rows").Store(step.estSrc)
				}
			}
			if len(step.filters) > 0 {
				ss.filter = ctx.Stats.Node(ss.node, step, "filter", "filter", "pushed")
				if step.estOut >= 0 {
					ss.filter.Counter("est_rows").Store(step.estOut)
				}
			}
		}
	}
	return st
}

type lazyValue struct {
	once sync.Once
	val  value.Value
	err  error
}

func (l *lazyValue) get(f func() (value.Value, error)) (value.Value, error) {
	l.once.Do(func() { l.val, l.err = f() })
	return l.val, l.err
}

type lazyTable struct {
	once sync.Once
	tab  *hashTable
	err  error
}

func (l *lazyTable) get(f func() (*hashTable, error)) (*hashTable, error) {
	l.once.Do(func() { l.tab, l.err = f() })
	return l.tab, l.err
}

// produce streams the FROM chain's bindings under the physical plan:
// pre-filters first (once), then the step chain.
func (st *physState) produce(ctx *eval.Context, k emit) error {
	if st.preFilter != nil {
		st.preFilter.AddIn(1)
	}
	ok, err := filtersPass(ctx, st.outer, st.phys.preC)
	if err != nil || !ok {
		return err
	}
	if st.preFilter != nil {
		st.preFilter.AddOut(1)
	}
	if st.phys.reorder != nil {
		return st.produceReordered(ctx, k)
	}
	return st.run(ctx, st.outer, 0, k)
}

// run produces step i's bindings over env and forwards each through the
// step's pushed filters to the next step.
func (st *physState) run(ctx *eval.Context, env *eval.Env, i int, k emit) error {
	if i == len(st.phys.steps) {
		return k(env)
	}
	step := &st.phys.steps[i]
	var ss *stepStats
	if st.stats != nil {
		ss = &st.stats[i]
	}
	next := func(child *eval.Env) error {
		if ss != nil && ss.filter != nil {
			ss.filter.AddIn(1)
		}
		ok, err := filtersPass(ctx, child, step.filtersC)
		if err != nil || !ok {
			return err
		}
		if ss != nil && ss.filter != nil {
			ss.filter.AddOut(1)
		}
		return st.run(ctx, child, i+1, k)
	}
	if step.hash != nil {
		if step.hash.buildIdx != nil {
			if ix := st.idxs[i].get(func() *index.Index { return resolveIndex(ctx, step.hash.buildIdx) }); ix != nil {
				return st.runIndexJoin(ctx, env, i, step.hash, ix, next)
			}
		}
		return st.runHash(ctx, env, i, step.hash, next)
	}
	if step.idx != nil {
		// A nil resolution (index dropped or redeclared since planning)
		// falls through to the scan paths below — the matched conjuncts
		// are still in step.filters, so only the speed changes.
		if ix := st.idxs[i].get(func() *index.Index { return resolveIndex(ctx, step.idx) }); ix != nil {
			return st.runIndexScan(ctx, env, i, step, ix, next)
		}
	}
	switch x := step.item.(type) {
	case *ast.FromExpr:
		if st.phys.compiled {
			return st.runScanFused(ctx, env, i, x, step, ss, next)
		}
		return st.runSource(ctx, env, i, step, ss, next)
	case *ast.FromUnpivot:
		return st.runSource(ctx, env, i, step, ss, next)
	}
	return produceItem(ctx, env, step.item, next)
}

// source evaluates step i's source through its closure in env, or, for a
// hoisted step, reads the block's shared hoist cell, filled on first use.
func (st *physState) source(ctx *eval.Context, env *eval.Env, i int, step *fromStep) (value.Value, error) {
	if !step.hoist {
		return step.srcC(ctx, env)
	}
	return st.sources[i].get(func() (value.Value, error) {
		return hoistSource(ctx, st.outer, step.srcC)
	})
}

// runSource is the row-at-a-time production of a scan or UNPIVOT step:
// produceItem's accounting around scanValue or unpivotValue over the
// step's source. Hoisted steps are untimed, like the fused scan's.
func (st *physState) runSource(ctx *eval.Context, env *eval.Env, i int, step *fromStep, ss *stepStats, next emit) error {
	if ss != nil {
		if !step.hoist {
			defer ss.node.Timer()()
		}
		next = countOut(ss.node, next)
	}
	src, err := st.source(ctx, env, i, step)
	if err != nil {
		return err
	}
	if x, ok := step.item.(*ast.FromUnpivot); ok {
		return unpivotValue(ctx, env, x, src, next)
	}
	return scanValue(ctx, env, step.item.(*ast.FromExpr), src, next)
}

// scanBatch is the row-slice size of the fused compiled scan loop: the
// cancellation poll and the stats row-count charges are amortized to one
// per batch. A power of two a few multiples of the eval pollInterval, so
// batched polling stays on the interpreter's cadence.
const scanBatch = 256

// runScanFused is the batched scan loop of the compiled pipeline,
// replacing runSource for plain FromExpr steps. The source evaluates
// through st.source; the element loop then binds, filters (inside next),
// and recurses exactly like the row-at-a-time path, but
// batch-at-a-time: one InterruptedN poll per batch and one
// stats true-up per batch with exact emitted counts. When phys.reuseEnv
// holds, one child Env is allocated per invocation and rebound in place
// per row instead of allocating per row. Observable row order, error
// points, stats totals, and fault-injection sites are identical to the
// row-at-a-time path.
//
// governor: the fused loop materializes nothing — rows stream to next
// and are charged at the pipeline's sinks (rowSink, groupState, hash
// build), exactly as in the row-at-a-time path.
func (st *physState) runScanFused(ctx *eval.Context, env *eval.Env, i int, x *ast.FromExpr, step *fromStep, ss *stepStats, next emit) error {
	src, err := st.source(ctx, env, i, step)
	if err != nil {
		return err
	}

	var node *eval.StatsNode
	if ss != nil {
		node = ss.node
		if !step.hoist {
			// Hoisted steps have no timer in the interpreted path either
			// (their per-row work is the continuation's); keep that shape.
			defer node.Timer()()
		}
	}
	var ord *int64
	if st.ord != nil {
		ord = &st.ord[i]
	}
	return st.scanFused(ctx, env, x, src, node, ord, next)
}

// scanFused is runScanFused's loop over an evaluated source: node is the
// scan's stats node (nil when uninstrumented) and ord, when non-nil,
// receives each binding's source ordinal for the reorder buffer. A hash
// join's plain-scan probe side runs through it too.
func (st *physState) scanFused(ctx *eval.Context, env *eval.Env, x *ast.FromExpr, src value.Value, node *eval.StatsNode, ord *int64, next emit) error {
	elems, isColl := value.Elements(src)
	if !isColl {
		// Non-collection sources (singleton bindings, MISSING, strict
		// faults) keep the row-at-a-time edge semantics of scanValue,
		// wrapped with produceItem's emitted-row accounting.
		if ord != nil {
			*ord = 0
		}
		if node != nil {
			next = countOut(node, next)
		}
		return scanValue(ctx, env, x, src, next)
	}

	if node != nil {
		node.AddIn(int64(len(elems)))
	}
	isArray := src.Kind() == value.KindArray
	reuse := st.phys.reuseEnv
	var child *eval.Env
	for base := 0; base < len(elems); base += scanBatch {
		hi := base + scanBatch
		if hi > len(elems) {
			hi = len(elems)
		}
		if err := ctx.InterruptedN(hi - base); err != nil {
			return err
		}
		emitted := int64(0)
		for j := base; j < hi; j++ {
			if faultinject.Enabled {
				if err := faultinject.Fire(faultinject.ScanNext); err != nil {
					if node != nil {
						node.AddOut(emitted)
					}
					return err
				}
			}
			if child == nil || !reuse {
				child = env.Child()
			}
			if ord != nil {
				*ord = int64(j)
			}
			child.Bind(x.As, elems[j])
			if x.AtVar != "" {
				if isArray {
					child.Bind(x.AtVar, value.Int(int64(j)))
				} else {
					// Bags are unordered: AT binds MISSING.
					child.Bind(x.AtVar, value.Missing)
				}
			}
			emitted++
			if err := next(child); err != nil {
				if node != nil {
					node.AddOut(emitted)
				}
				return err
			}
		}
		if node != nil {
			node.AddOut(emitted)
		}
	}
	return nil
}

// filtersPass evaluates conjuncts; the binding survives only when every
// conjunct is exactly TRUE, the same test WHERE applies.
func filtersPass(ctx *eval.Context, env *eval.Env, filters []eval.CompiledExpr) (bool, error) {
	for _, f := range filters {
		cond, err := f(ctx, env)
		if err != nil {
			return false, err
		}
		if !eval.IsTrue(cond) {
			return false, nil
		}
	}
	return true, nil
}

// groupState gathers GROUP BY groups (§V-B). Groups key on the canonical
// encoding of their key values, so NULL and MISSING each group on their
// own (coalesced in SQL compatibility mode), and 1 groups with 1.0.
// Without a fold plan each input binding contributes its block variables
// as one content tuple of its group, the GROUP AS collection; with one
// (fold.go), each binding is folded into its group's aggregates instead.
type groupState struct {
	ctx    *eval.Context
	outer  *eval.Env
	spec   *ast.GroupBy
	fold   *foldPlan
	index  map[string]int // canonical key encoding -> position in groups
	groups []group
	// st is the EXPLAIN ANALYZE node, nil when instrumentation is off.
	// Parallel workers each hold their own groupState but resolve the
	// same keyed node, so rows-in sums across workers and groups-out is
	// recorded once by the merged state's flush.
	st *eval.StatsNode
	// keys are the grouping-key closures, one per spec.Keys entry.
	keys []eval.CompiledExpr
	// kb and kv are the per-row key encoding and key values, reused
	// across rows; only a new group copies them.
	kb []byte
	kv []value.Value
	// snap is the reused snapshot tuple folded arguments navigate, bound
	// to each slot's element variable in elems.
	snap  *value.Tuple
	elems []*eval.Env
	// keep makes SUM/AVG accumulators retain their values for an
	// order-preserving merge: set in the parallel workers after the
	// first, whose groups merge after an earlier chunk's.
	keep bool
}

// group is one group: its key values, its size, and either its content
// (materialized) or its aggregates' accumulators (folded). A folded
// group is bound as its GROUP AS variable, where only the folded
// aggregates read it: COLL_COUNT of it is its size.
type group struct {
	key  string
	keys []value.Value
	n    int64
	rows value.Bag
	accs []aggAcc
}

// Kind reports the kind of the GROUP AS collection the group stands for.
func (*group) Kind() value.Kind { return value.KindBag }

// String names the group in diagnostics.
func (*group) String() string { return "<folded group>" }

// FoldedResult implements funcs.Folded: COLL_COUNT of the group's rows.
func (g *group) FoldedResult() (value.Value, error) { return value.Int(g.n), nil }

func newGroupState(ctx *eval.Context, outer *eval.Env, spec *ast.GroupBy, keys []eval.CompiledExpr, fold *foldPlan) *groupState {
	g := &groupState{
		ctx:   ctx,
		outer: outer,
		spec:  spec,
		fold:  fold,
		keys:  keys,
		index: map[string]int{},
		kv:    make([]value.Value, len(keys)),
	}
	if ctx.Stats != nil {
		g.st = ctx.Stats.Node(statsParent(ctx), spec, "group", "group-by", "")
	}
	if fold != nil {
		g.snap = value.EmptyTuple()
		// One scope per slot: an argument may name another slot's element
		// variable, which must then resolve outside the group.
		g.elems = make([]*eval.Env, len(fold.slots))
		for i, s := range fold.slots {
			g.elems[i] = outer.Child()
			g.elems[i].Bind(s.elem, g.snap)
		}
	}
	// The implicit single group of aggregate-only queries exists even
	// for empty input (SELECT AVG(x) over nothing yields one NULL row).
	if len(spec.Keys) == 0 {
		g.newGroup("", nil)
	}
	return g
}

// newGroup appends an empty group and returns it.
func (g *groupState) newGroup(key string, keys []value.Value) *group {
	g.index[key] = len(g.groups)
	g.groups = append(g.groups, group{key: key, keys: keys})
	grp := &g.groups[len(g.groups)-1]
	if g.fold != nil {
		grp.accs = make([]aggAcc, len(g.fold.slots))
		for i := range grp.accs {
			grp.accs[i].fold = g.fold.slots[i].fold
		}
	}
	return grp
}

// add folds one binding environment into its group.
func (g *groupState) add(env *eval.Env) error {
	if err := g.ctx.Interrupted(); err != nil {
		return err
	}
	if g.st != nil {
		g.st.AddIn(1)
	}
	g.kb = g.kb[:0]
	for i, key := range g.keys {
		v, err := key(g.ctx, env)
		if err != nil {
			return err
		}
		g.kv[i] = v
		// SQL compatibility mode must not let a query distinguish null
		// from missing (§IV-B): a missing grouping key joins the NULL
		// group instead of forming its own. Only the encoding coalesces;
		// the representative stays MISSING unless some contributor was
		// null (mergeCompatKeys), so an all-missing image keeps
		// missing-style output per the guarantee.
		if g.ctx.Compat && v.Kind() == value.KindMissing {
			v = value.Null
		}
		g.kb = value.AppendKey(g.kb, v)
	}
	var grp *group
	if i, ok := g.index[string(g.kb)]; ok {
		grp = &g.groups[i]
		if g.ctx.Compat {
			mergeCompatKeys(grp.keys, g.kv)
		}
	} else {
		grp = g.newGroup(string(g.kb), append([]value.Value(nil), g.kv...))
	}
	grp.n++
	if g.fold == nil {
		snap := env.SnapshotBelow(g.outer)
		grp.rows = append(grp.rows, snap)
		if g.ctx.Gov != nil {
			if err := g.ctx.Gov.ChargeValues("group-by", 1, snap); err != nil {
				return err
			}
		}
		return checkSize(g.ctx, int(grp.n))
	}
	// A folded row still owes the governor the snapshot it does not keep.
	if len(g.elems) > 0 || g.ctx.Gov != nil {
		env.SnapshotBelowInto(g.outer, g.snap)
	}
	if g.ctx.Gov != nil {
		if err := g.ctx.Gov.ChargeValues("group-by", 1, g.snap); err != nil {
			return err
		}
	}
	if err := checkSize(g.ctx, int(grp.n)); err != nil {
		return err
	}
	for i := range grp.accs {
		acc := &grp.accs[i]
		if acc.argErr != nil {
			continue
		}
		v, err := g.fold.slots[i].arg(g.ctx, g.elems[i])
		if err != nil {
			acc.argErr = err
			continue
		}
		acc.add(v, g.ctx.Gov, g.keep && acc.fold.OrderSensitive())
	}
	return nil
}

// mergeCompatKeys upgrades MISSING representatives to NULL when another
// contributor to the same compat-coalesced group supplied a null key.
// The upgrade is order-independent: the representative is MISSING iff
// every row in the group had the key missing.
func mergeCompatKeys(have, incoming []value.Value) {
	for i, kv := range have {
		if kv.Kind() == value.KindMissing && incoming[i].Kind() != value.KindMissing {
			have[i] = value.Null
		}
	}
}

// flush emits one binding per group: the key aliases plus the GROUP AS
// variable, bound to the group's content (Listing 14's p/g bindings) or,
// folded, to the group itself.
func (g *groupState) flush(k emit) error {
	for i := range g.groups {
		grp := &g.groups[i]
		if g.st != nil {
			g.st.AddOut(1)
		}
		env := g.outer.Child()
		for j, key := range g.spec.Keys {
			env.Bind(groupKeyAlias(key, j), grp.keys[j])
		}
		if g.spec.GroupAs != "" {
			if g.fold != nil {
				env.Bind(g.spec.GroupAs, grp)
			} else if grp.rows == nil {
				env.Bind(g.spec.GroupAs, value.Bag{})
			} else {
				env.Bind(g.spec.GroupAs, grp.rows)
			}
		}
		if err := k(env); err != nil {
			return err
		}
	}
	return nil
}
