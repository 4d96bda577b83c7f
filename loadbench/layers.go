package main

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"sqlpp"
	"sqlpp/internal/ast"
	"sqlpp/internal/catalog"
	"sqlpp/internal/datafmt"
	"sqlpp/internal/eval"
	"sqlpp/internal/funcs"
	"sqlpp/internal/index"
	"sqlpp/internal/parser"
	"sqlpp/internal/plan"
	"sqlpp/internal/rewrite"
	"sqlpp/internal/sema"
	"sqlpp/internal/sion"
	"sqlpp/internal/stats"
	"sqlpp/internal/value"
)

// replayer splits each traced operation into its layers. After a reply
// arrives it repeats, in the benchmark's own process and on the same data,
// the calls the server made for that request, each call wrapped in a span:
// compile (parse, rewrite, optimize, analyze, Engine.Prepare) when the
// server missed its plan cache, execution, result encoding, and on writes
// the append and statistics extension.
type replayer struct {
	tr *tracer
	fx *fixture
	// mirror holds a copy of the served collection for the calls that
	// need a catalog (name resolution, index and statistics sources, the
	// write path); the served engine keeps its catalog private.
	mirror *catalog.Catalog
	funcs  *funcs.Registry

	mu      sync.Mutex
	plans   map[string]preparedPlan
	elapsed map[int64]int64 // op → the reply's elapsed_us, reads only
	// replans counts parameterized reads the server had to compile again
	// (its cache is purged by every append).
	replans atomic.Int64
}

type preparedPlan struct {
	p  *sqlpp.Prepared
	pp *sqlpp.PreparedParams
}

func (p preparedPlan) exec(ctx context.Context, params map[string]value.Value) (value.Value, error) {
	if p.pp != nil {
		return p.pp.ExecContext(ctx, params)
	}
	return p.p.ExecContext(ctx)
}

func (p preparedPlan) analyze(ctx context.Context, params map[string]value.Value) (*sqlpp.OpStats, error) {
	var st *sqlpp.OpStats
	var err error
	if p.pp != nil {
		_, st, err = p.pp.ExplainAnalyze(ctx, params)
	} else {
		_, st, err = p.p.ExplainAnalyze(ctx)
	}
	return st, err
}

func newReplayer(tr *tracer, fx *fixture) *replayer {
	rp := &replayer{tr: tr, fx: fx, funcs: funcs.NewRegistry(), plans: map[string]preparedPlan{}, elapsed: map[int64]int64{}}
	if fx.coord == nil {
		rp.mirror = catalog.New()
		if v, ok := fx.srv.Engine().Lookup("hr.emp"); ok {
			_ = rp.mirror.Register("hr.emp", v) // no index is declared yet, so Register cannot fail
			spec := index.Spec{Name: "emp_id", Collection: "hr.emp", Path: []string{"id"}, Kind: index.Hash}
			if err := rp.mirror.CreateIndex(spec, nil); err != nil {
				panic(err) // the served engine built the same index during setup
			}
		}
	}
	return rp
}

// elapsedOf is the elapsed_us the server reported for read op.
func (rp *replayer) elapsedOf(op int64) (int64, bool) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	us, ok := rp.elapsed[op]
	return us, ok
}

// timed runs f inside a span named name under parent.
func (rp *replayer) timed(name string, op, parent int64, f func(s *span)) {
	s := rp.tr.begin(name, op, parent)
	f(&s)
	rp.tr.finish(s)
}

func (rp *replayer) replay(rec record) {
	if rec.err != nil || rec.status/100 != 2 {
		return
	}
	root := rp.tr.begin("replay", rec.opID, 0)
	defer rp.tr.finish(root)
	if rec.op.kind == kindWrite {
		rp.write(rec.op, rec.opID, root.ID)
		return
	}
	var env envelope
	if err := json.Unmarshal(rec.body, &env); err != nil {
		return
	}
	rp.mu.Lock()
	rp.elapsed[rec.opID] = env.ElapsedUS
	rp.mu.Unlock()
	var result value.Value
	if rp.fx.coord != nil {
		result = rp.sharded(rec.opID, root.ID, env)
	} else {
		result = rp.single(rec.op, rec.opID, root.ID, env.Cached)
	}
	if result == nil {
		return
	}
	rp.timed("datafmt.encode", rec.opID, root.ID, func(s *span) {
		a0 := heapAllocs()
		out, err := datafmt.JSONString(result)
		s.Allocs = int64(heapAllocs() - a0)
		if err == nil {
			s.Bytes = int64(len(out))
		}
		els, ok := value.Elements(result)
		s.Rows = int64(len(els))
		if !ok {
			s.Rows = 1
		}
	})
}

// single replays a read served by one node and returns its result.
func (rp *replayer) single(o *op, opID, parent int64, cached bool) value.Value {
	names := paramNames(o.params)
	sort.Strings(names)
	if !cached {
		if len(names) > 0 {
			rp.replans.Add(1)
		}
		rp.compile(o, names, opID, parent)
	}
	key := o.query
	if o.vet {
		key += "\x00vet"
	}
	rp.mu.Lock()
	pl, ok := rp.plans[key]
	rp.mu.Unlock()
	if !ok || !cached {
		eng := rp.fx.srv.Engine()
		if o.vet {
			opts := eng.Options()
			opts.Vet = true
			eng = eng.WithOptions(opts)
		}
		var err error
		prepare := func(*span) {
			if len(names) > 0 {
				pl.pp, err = eng.PrepareParams(o.query, names...)
			} else {
				pl.p, err = eng.Prepare(o.query)
			}
		}
		if cached {
			prepare(nil) // the server served this from its cache: not timed
		} else {
			rp.timed("sqlpp.prepare", opID, parent, prepare)
		}
		if err != nil {
			return nil
		}
		rp.mu.Lock()
		rp.plans[key] = pl
		rp.mu.Unlock()
	}
	params := toValues(o.params)
	var result value.Value
	rp.timed("exec", opID, parent, func(s *span) {
		result, _ = pl.exec(context.Background(), params)
	})
	if st, err := pl.analyze(context.Background(), params); err == nil {
		rp.countOps(opID, parent, st)
	}
	return result
}

// compile repeats Engine.Prepare's phases one call at a time.
func (rp *replayer) compile(o *op, names []string, opID, parent int64) {
	var tree, core ast.Expr
	var err error
	rp.timed("parser.parse", opID, parent, func(*span) { tree, err = parser.Parse(o.query) })
	if err != nil {
		return
	}
	rp.timed("rewrite.rewrite", opID, parent, func(*span) {
		core, err = rewrite.Rewrite(tree, rewrite.Options{Names: rp.mirror, Params: names})
	})
	if err != nil {
		return
	}
	rp.timed("plan.optimize", opID, parent, func(*span) {
		plan.Optimize(core, plan.OptOptions{
			Mode:        eval.Permissive,
			Indexes:     rp.mirror,
			Compile:     true,
			Funcs:       rp.funcs,
			Stats:       rp.mirror,
			Parallelism: runtime.GOMAXPROCS(0),
		})
	})
	if o.vet {
		rp.timed("sema.analyze", opID, parent, func(*span) { sema.Analyze(core, sema.Options{Params: names}) })
	}
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// countOps records the EXPLAIN ANALYZE counts of one execution as a
// zero-length span: rows examined by scans and probes, index probes and
// hits.
func (rp *replayer) countOps(opID, parent int64, st *sqlpp.OpStats) {
	s := rp.tr.begin("exec.counts", opID, parent)
	st.Walk(func(n *eval.StatsSnapshot) {
		switch n.Op {
		case "scan", "index_probe":
			s.Examined += n.RowsIn
		}
		s.Probes += n.Counters["probes"]
		s.Hits += n.Counters["hits"]
	})
	s.End = s.Start
	rp.tr.add(s)
}

// write replays an append on the mirror: decode, statistics extension and
// the catalog append (which extends statistics and indexes again inside).
func (rp *replayer) write(o *op, opID, parent int64) {
	var v value.Value
	var err error
	rp.timed("sion.parse", opID, parent, func(*span) { v, err = sion.Parse(o.sion) })
	if err != nil {
		return
	}
	elems, _ := value.Elements(v)
	// Only the durations are kept: the extended statistics are discarded,
	// and a failed index extension inside Append drops that index while
	// the append itself takes effect, as on the server.
	if st := rp.mirror.StatsFor("hr.emp"); st != nil {
		rp.timed("stats.extend", opID, parent, func(*span) { _, _ = st.Extended(elems, nil) })
	}
	rp.timed("catalog.append", opID, parent, func(*span) { _ = rp.mirror.Append("hr.emp", elems, nil) })
}

// sharded replays each per-shard query of a coordinator read on its data
// node's engine and returns the served result for the encode replay.
func (rp *replayer) sharded(opID, parent int64, env envelope) value.Value {
	for _, c := range rp.tr.popCalls(opID) {
		key := strconv.Itoa(c.shard) + "\x00" + c.query
		rp.mu.Lock()
		pl, ok := rp.plans[key]
		rp.mu.Unlock()
		if !ok {
			p, err := rp.fx.nodeEng[c.shard].Prepare(c.query)
			if err != nil {
				continue
			}
			pl = preparedPlan{p: p}
			rp.mu.Lock()
			rp.plans[key] = pl
			rp.mu.Unlock()
		}
		rp.timed("exec", opID, parent, func(s *span) {
			s.Shard = c.shard
			_, _ = pl.exec(context.Background(), nil) // the served reply was verified; only the time is kept
		})
		if st, err := pl.analyze(context.Background(), nil); err == nil {
			rp.countOps(opID, parent, st)
		}
	}
	v, err := datafmt.ParseJSON(string(bytes.TrimSpace(env.Result)))
	if err != nil {
		return nil
	}
	return v
}

// timeIngestLayers times, once per traced run, the set-up layers of the
// single-node ingest: JSON decode, statistics build and index build.
func timeIngestLayers(tr *tracer, payload []byte) {
	s := tr.begin("datafmt.decode", 0, 0)
	hr, err := datafmt.DecodeJSONBag(bytes.NewReader(payload))
	s.Bytes = int64(len(payload))
	tr.finish(s)
	if err == nil {
		timeBuildLayers(tr, hr, true)
	}
}

// timeShardIngestLayers is timeIngestLayers for the coordinator's
// distribution, which ships each shard its part in object notation.
func timeShardIngestLayers(tr *tracer, part string, flat value.Value) {
	s := tr.begin("datafmt.decode", 0, 0)
	s.Note = "sion"
	_, _ = sion.Parse(part)
	s.Bytes = int64(len(part))
	tr.finish(s)
	timeBuildLayers(tr, flat, false)
}

func timeBuildLayers(tr *tracer, v value.Value, withIndex bool) {
	s := tr.begin("stats.build", 0, 0)
	_, _ = stats.Build(v, nil)
	tr.finish(s)
	if withIndex {
		s = tr.begin("index.build", 0, 0)
		_, _ = index.Build(index.Spec{Name: "emp_id", Collection: "hr.emp", Path: []string{"id"}, Kind: index.Hash}, v, nil)
		tr.finish(s)
	}
}
