package plan

import (
	"sqlpp/internal/ast"
	"sqlpp/internal/eval"
	"sqlpp/internal/value"
)

// runSFWMaterialized executes a query block with a full materialization
// barrier between every clause, in contrast to the streaming pipeline of
// runSFW. Semantics are identical; this executor exists for the
// DESIGN.md ablation quantifying what the streaming pipeline buys
// (no intermediate binding lists, LIMIT pushdown).
func runSFWMaterialized(ctx *eval.Context, outer *eval.Env, q *ast.SFW) (value.Value, error) {
	// FROM: materialize the full binding list.
	var envs []*eval.Env
	err := produceFrom(ctx, outer, q.From, func(env *eval.Env) error {
		envs = append(envs, env)
		if ctx.Gov != nil {
			if err := ctx.Gov.ChargeValues("materialize", 1, nil); err != nil {
				return err
			}
		}
		return checkSize(ctx, len(envs))
	})
	if err != nil {
		return nil, err
	}

	// LET: bind per environment (a clause pass of its own).
	for _, l := range q.Lets {
		for _, env := range envs {
			v, err := eval.Eval(ctx, env, l.Expr)
			if err != nil {
				return nil, err
			}
			env.Bind(l.Name, v)
		}
	}

	// WHERE: materialize the survivors.
	if q.Where != nil {
		kept := envs[:0:0]
		for _, env := range envs {
			cond, err := eval.Eval(ctx, env, q.Where)
			if err != nil {
				return nil, err
			}
			if eval.IsTrue(cond) {
				kept = append(kept, env)
			}
		}
		envs = kept
	}

	// GROUP BY: fold into group bindings.
	if q.GroupBy != nil {
		grouper := newGroupState(ctx, outer, q.GroupBy, groupKeys(q.GroupBy, eval.Interpret), nil)
		for _, env := range envs {
			if err := grouper.add(env); err != nil {
				return nil, err
			}
		}
		envs = envs[:0:0]
		if err := grouper.flush(func(env *eval.Env) error {
			envs = append(envs, env)
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// HAVING.
	if q.Having != nil {
		kept := envs[:0:0]
		for _, env := range envs {
			cond, err := eval.Eval(ctx, env, q.Having)
			if err != nil {
				return nil, err
			}
			if eval.IsTrue(cond) {
				kept = append(kept, env)
			}
		}
		envs = kept
	}

	// Window computations.
	if len(q.Windows) > 0 {
		if err := computeWindows(ctx, q.Windows, envs); err != nil {
			return nil, err
		}
	}

	// SELECT VALUE projection (plus DISTINCT), then ORDER/LIMIT/OFFSET.
	limit, offset, err := evalLimitOffset(ctx, outer, q)
	if err != nil {
		return nil, err
	}
	ordered := len(q.OrderBy) > 0
	seen := map[string]bool{}
	var out []value.Value
	var rows []sortRow
	for _, env := range envs {
		v, err := eval.Eval(ctx, env, q.Select.Value)
		if err != nil {
			return nil, err
		}
		if v.Kind() == value.KindMissing {
			if !ordered {
				continue
			}
			v = value.Null
		}
		if q.Select.Distinct {
			k := value.Key(v)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		if ctx.Gov != nil {
			site := "select"
			if ordered {
				site = "order-by"
			}
			if err := ctx.Gov.ChargeOutput(site, 1, v); err != nil {
				return nil, err
			}
		}
		if ordered {
			keys := make([]value.Value, len(q.OrderBy))
			for i, o := range q.OrderBy {
				kv, err := eval.Eval(ctx, env, o.Expr)
				if err != nil {
					return nil, err
				}
				keys[i] = kv
			}
			rows = append(rows, sortRow{val: v, keys: keys})
			continue
		}
		out = append(out, v)
	}
	if ordered {
		sortRows(rows, q.OrderBy)
		out = make([]value.Value, len(rows))
		for i, r := range rows {
			out[i] = r.val
		}
	}
	out = applyLimitOffset(out, limit, offset)
	if ordered {
		return value.Array(out), nil
	}
	return value.Bag(out), nil
}
