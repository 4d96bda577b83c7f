package plan

import (
	"sqlpp/internal/ast"
	"sqlpp/internal/eval"
	"sqlpp/internal/faultinject"
	"sqlpp/internal/value"
)

// Hash equi-join runtime. The table is built once per block invocation
// over the uncorrelated side, keyed by the canonical value.AppendKey
// encoding of the build keys, and probed once per left binding. Buckets
// are candidate prefilters only: every candidate pair is re-verified
// with the original predicate, so the observable semantics — numeric
// coercion in '=', NULL/MISSING never matching, LEFT JOIN padding — are
// exactly those of the nested loop it replaces.

// hashTable maps the canonical encoding of the build keys to the
// build-side rows carrying that key.
type hashTable struct {
	buckets map[string][]hashRow
	rows    int
}

// hashRow is one build-side binding: the variables its scan introduced,
// plus the binding's position in the build source's enumeration (seq),
// which the join-reorder buffer uses as this step's ordinal. Bucket
// order preserves it, so candidates stream in source order.
type hashRow struct {
	names []string
	vals  []value.Value
	seq   int64
}

// buildHashTable evaluates the build side once and indexes its bindings.
// Rows whose key contains NULL or MISSING are dropped: '=' with an
// absent operand is never TRUE, so they cannot match any probe (a LEFT
// JOIN pads from the probe side, which is unaffected).
func buildHashTable(ctx *eval.Context, outer *eval.Env, h *hashJoinStep) (*hashTable, error) {
	t := &hashTable{buckets: map[string][]hashRow{}}
	var kb []byte
	var seq int64
	err := produceItem(ctx, outer, h.right, func(renv *eval.Env) error {
		// seq numbers every produced binding, including those dropped for
		// absent keys, so retained rows keep their source positions'
		// relative order.
		mySeq := seq
		seq++
		if faultinject.Enabled {
			if err := faultinject.Fire(faultinject.HashBuildInsert); err != nil {
				return err
			}
		}
		// The build phase is a blocking loop that produces no output rows,
		// so it must poll cancellation itself or a deadline lands only
		// after the whole table is built.
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		kb = kb[:0]
		for _, bk := range h.buildC {
			v, err := bk(ctx, renv)
			if err != nil {
				return err
			}
			if value.IsAbsent(v) {
				return nil
			}
			kb = value.AppendKey(kb, v)
		}
		names := renv.Names()
		row := hashRow{names: names, vals: make([]value.Value, len(names)), seq: mySeq}
		for i, n := range names {
			v, _ := renv.Lookup(n)
			row.vals[i] = v
		}
		t.rows++
		if err := checkSize(ctx, t.rows); err != nil {
			return err
		}
		if ctx.Gov != nil {
			if err := ctx.Gov.ChargeBindings("hash-build", row.vals); err != nil {
				return err
			}
		}
		t.buckets[string(kb)] = append(t.buckets[string(kb)], row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// runHash produces the bindings of a hash-join step. When h.left is set
// (JOIN ... ON), the left subtree's bindings probe — a plain scan through
// the fused batch loop when the plan is compiled; otherwise the incoming
// environment itself probes (comma cross product).
func (st *physState) runHash(ctx *eval.Context, env *eval.Env, i int, h *hashJoinStep, k emit) error {
	if h.left == nil {
		var buf [64]byte
		p := st.newProbe(ctx, i, h, k, buf[:0])
		return p.probe(env)
	}
	p := st.newProbe(ctx, i, h, k, nil)
	x, ok := h.left.(*ast.FromExpr)
	if !ok || !st.phys.compiled {
		return produceItem(ctx, env, h.left, p.probe)
	}
	var node *eval.StatsNode
	if p.ss != nil {
		node = p.ss.left
		defer node.Timer()()
	}
	src, err := h.leftC(ctx, env)
	if err != nil {
		return err
	}
	return st.scanFused(ctx, env, x, src, node, nil, p.probe)
}

// hashProbe is the state one runHash invocation reuses across its
// probes: the table once built, the probe-key buffer, and, under the
// plan's reuseEnv gate, one candidate scope rebound per candidate.
type hashProbe struct {
	st  *physState
	ctx *eval.Context
	i   int
	h   *hashJoinStep
	ss  *stepStats
	k   emit
	tbl *hashTable
	kb  []byte
	// cand is the reused candidate scope, a child of candOf.
	cand, candOf *eval.Env
}

func (st *physState) newProbe(ctx *eval.Context, i int, h *hashJoinStep, k emit, kb []byte) hashProbe {
	p := hashProbe{st: st, ctx: ctx, i: i, h: h, k: k, kb: kb}
	if st.stats != nil {
		p.ss = &st.stats[i]
	}
	return p
}

// probe looks up one probe-side binding's candidates, verifies each, and
// emits the matches (or the LEFT JOIN padding).
func (p *hashProbe) probe(lenv *eval.Env) error {
	ctx, st, h, ss := p.ctx, p.st, p.h, p.ss
	if err := ctx.Interrupted(); err != nil {
		return err
	}
	// The table builds on first probe, so a join whose probe side is
	// empty never evaluates the build side — as the nested loop
	// wouldn't.
	if p.tbl == nil {
		tbl, err := st.tables[p.i].get(func() (*hashTable, error) {
			if ss == nil {
				return buildHashTable(ctx, st.outer, h)
			}
			// The hash node's time is the build; probe work is counted on
			// the probe side's own nodes.
			stop := ss.node.Timer()
			t, err := buildHashTable(ctx, st.outer, h)
			stop()
			if err == nil {
				ss.node.Counter("buckets").Store(int64(len(t.buckets)))
				ss.node.Counter("build_rows").Store(int64(t.rows))
			}
			return t, err
		})
		if err != nil {
			return err
		}
		p.tbl = tbl
	}
	if ss != nil {
		ss.node.AddIn(1)
	}
	p.kb = p.kb[:0]
	absent := false
	for _, pk := range h.probeC {
		v, err := pk(ctx, lenv)
		if err != nil {
			return err
		}
		if value.IsAbsent(v) {
			absent = true
			break
		}
		p.kb = value.AppendKey(p.kb, v)
	}
	var bucket []hashRow
	if !absent {
		bucket = p.tbl.buckets[string(p.kb)]
	}
	matched := false
	for _, row := range bucket {
		if ss != nil {
			ss.candidates.Add(1)
		}
		if st.ord != nil {
			st.ord[p.i] = row.seq
		}
		if p.cand == nil || p.candOf != lenv || !st.phys.reuseEnv {
			p.cand, p.candOf = lenv.Child(), lenv
		}
		cand := p.cand
		for j, n := range row.names {
			cand.Bind(n, row.vals[j])
		}
		ok, err := filtersPass(ctx, cand, h.verifyC)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		matched = true
		if ss != nil {
			ss.verified.Add(1)
			ss.node.AddOut(1)
		}
		if err := p.k(cand); err != nil {
			return err
		}
	}
	if !matched && h.leftJoin {
		if ss != nil {
			ss.pads.Add(1)
			ss.node.AddOut(1)
		}
		padded := lenv.Child()
		for _, n := range h.padVars {
			padded.Bind(n, value.Null)
		}
		return p.k(padded)
	}
	return nil
}
