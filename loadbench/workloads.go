package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sqlpp"
	"sqlpp/internal/bench"
	"sqlpp/internal/datafmt"
	"sqlpp/internal/server"
	"sqlpp/internal/shard"
	"sqlpp/internal/value"
)

// scenario is one workload: its data, its seeded operation stream, the
// reference answers, and how to set the service up for it.
type scenario interface {
	name() string
	clients() int
	sizes() map[string]int
	// prepare generates the data, the request pool and the reference
	// answers. It is not part of setup_s.
	prepare(seed int64) error
	// setup starts the service and loads it; it is timed as setup_s.
	setup(tr *tracer) (*fixture, error)
	// next is operation seq of client c's seeded stream.
	next(rng *rand.Rand, c, seq int) *op
	expect(key string) (*expected, error)
	checkWrite(count int64) error
	noteAppended(n int)
	// check verifies end-of-run invariants on the loaded service.
	check(fx *fixture) error
	// layerSetup times the set-up layers (decode, stats, index build)
	// once, as spans, in a traced run.
	layerSetup(tr *tracer)
	// release drops the generated data once the service is loaded, so
	// the benchmark's own heap does not add to the server's collections.
	release()
}

var scenarios = map[string]func() scenario{
	"point-mixed":    func() scenario { return &pointMixed{} },
	"export-scan":    func() scenario { return &exportScan{} },
	"analytic-shard": func() scenario { return &analyticShard{} },
}

// hrRows is the employee count of the single-node workloads; the shard
// workload has as many flat rows.
const hrRows = 100_000

// fixture is a running service: the front server the clients call and,
// in coordinator mode, the data nodes behind it.
type fixture struct {
	front      *httptest.Server
	srv        *server.Server
	client     *http.Client
	nodes      []*httptest.Server
	nodeEng    []*sqlpp.Engine
	coord      *shard.Coordinator
	transports []*http.Transport
}

func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}
}

// serve starts srv behind the span middleware on a loopback port.
func (fx *fixture) serve(tr *tracer, srv *server.Server) {
	fx.srv = srv
	fx.front = httptest.NewServer(tr.middleware("server.handle", srv))
	t := newTransport()
	fx.transports = append(fx.transports, t)
	fx.client = &http.Client{Transport: t}
}

func (fx *fixture) close() {
	if fx.front != nil {
		fx.front.Close()
	}
	for _, n := range fx.nodes {
		n.Close()
	}
	for _, t := range fx.transports {
		t.CloseIdleConnections()
	}
}

// post sends body to path on the front server and requires a 2xx reply.
func (fx *fixture) post(path string, body []byte) ([]byte, error) {
	resp, err := fx.client.Post(fx.front.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// query runs q on the front server and returns the result JSON.
func (fx *fixture) query(q string) (json.RawMessage, error) {
	body, err := json.Marshal(map[string]any{"query": q})
	if err != nil {
		return nil, err
	}
	out, err := fx.post("/v1/query", body)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(out, &env); err != nil {
		return nil, err
	}
	return env.Result, nil
}

// scrape reads the front server's /metrics counters.
func (fx *fixture) scrape() (map[string]float64, error) {
	resp, err := fx.client.Get(fx.front.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, nil
}

// warm sends each op once and requires success.
func (fx *fixture) warm(ops ...*op) error {
	for _, o := range ops {
		r := fx.send(o, nil)
		if r.err != nil {
			return r.err
		}
		if r.status/100 != 2 {
			return fmt.Errorf("warm-up %s: status %d: %s", o.label, r.status, bytes.TrimSpace(r.body))
		}
	}
	return nil
}

// deck deals a pool of requests in rounds: each round is a seeded
// shuffle of the whole pool, so the mix of request kinds in a run does
// not depend on the seed or on where the window happens to end.
type deck struct {
	pool  []*op
	hands [][]*op // per client; only that client's goroutine touches it
}

func newDeck(clients int, pools ...[]*op) *deck {
	d := &deck{hands: make([][]*op, clients)}
	for _, p := range pools {
		d.pool = append(d.pool, p...)
	}
	return d
}

func (d *deck) draw(rng *rand.Rand, c, seq int) *op {
	i := seq % len(d.pool)
	if i == 0 || d.hands[c] == nil {
		h := append([]*op(nil), d.pool...)
		rng.Shuffle(len(h), func(a, b int) { h[a], h[b] = h[b], h[a] })
		d.hands[c] = h
	}
	return d.hands[c][i]
}

func queryOp(label, key, q string, params map[string]any, vet bool) *op {
	req := map[string]any{"query": q}
	if params != nil {
		req["params"] = params
	}
	if vet {
		req["vet"] = true
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // maps of strings and ints always marshal
	}
	return &op{kind: kindRead, label: label, path: "/v1/query", body: body, key: key, query: q, params: params, vet: vet}
}

// refs holds the reference answers of a pool of requests by key.
type refs struct {
	mu sync.Mutex
	m  map[string]*expected
}

// compute answers each distinct request of the pool with answer, one
// worker per usable core, and keeps each answer as the reference.
func (r *refs) compute(pool []*op, answer func(*op) (value.Value, error)) error {
	r.m = map[string]*expected{}
	ch := make(chan *op)
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for o := range ch {
				v, err := answer(o)
				if err != nil {
					if errs[w] == nil {
						errs[w] = fmt.Errorf("reference for %s: %w", o.key, err)
					}
					continue
				}
				e := newExpected(v)
				r.mu.Lock()
				r.m[o.key] = e
				r.mu.Unlock()
			}
		}(w)
	}
	seen := map[string]bool{}
	for _, o := range pool {
		if !seen[o.key] {
			seen[o.key] = true
			ch <- o
		}
	}
	close(ch)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *refs) expect(key string) (*expected, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.m[key]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("no reference answer for %s", key)
}

// readOnly is the write side of a workload that only reads.
type readOnly struct{}

func (readOnly) checkWrite(int64) error { return fmt.Errorf("workload has no writes") }
func (readOnly) noteAppended(int)       {}
func (readOnly) check(*fixture) error   { return nil }

// naiveEngine is the reference pipeline: same data, optimizer off.
func naiveEngine(data map[string]value.Value) (*sqlpp.Engine, error) {
	e := sqlpp.New(&sqlpp.Options{DisableOptimizer: true})
	for name, v := range data {
		if err := e.Register(name, v); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func toValues(params map[string]any) map[string]value.Value {
	out := make(map[string]value.Value, len(params))
	for k, v := range params {
		out[k] = value.Int(int64(v.(int)))
	}
	return out
}

func paramNames(params map[string]any) []string {
	names := make([]string, 0, len(params))
	for k := range params {
		names = append(names, k)
	}
	return names
}

// singleNode is the shared base of the workloads served by one node: the
// nested employees ingested as JSON with a hash index on id.
type singleNode struct {
	payload []byte // the JSON ingest body
}

func (s *singleNode) sizes() map[string]int { return map[string]int{"hr.emp": hrRows} }

// generate returns the employees and keeps their JSON as the ingest body.
func (s *singleNode) generate(seed int64) (value.Bag, error) {
	hr := bench.HR(bench.HROptions{N: hrRows, MissingStyle: true, AbsentTitleRate: 10, Seed: seed})
	js, err := datafmt.JSONString(hr)
	if err != nil {
		return nil, err
	}
	s.payload = []byte(js)
	return hr, nil
}

// start brings a single-node server up through the public endpoints.
func (s *singleNode) start(tr *tracer) (*fixture, error) {
	fx := &fixture{}
	fx.serve(tr, server.New(sqlpp.New(nil), server.Config{}))
	if _, err := fx.post("/v1/collections/hr.emp?format=json", s.payload); err != nil {
		fx.close()
		return nil, err
	}
	idx := []byte(`{"name": "emp_id", "collection": "hr.emp", "path": "id", "kind": "hash"}`)
	if _, err := fx.post("/v1/indexes", idx); err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

func (s *singleNode) layerSetup(tr *tracer) { timeIngestLayers(tr, s.payload) }
func (s *singleNode) release()              { s.payload = nil }

// ---------------------------------------------------------------------
// point-mixed: two clients; cached parameterized point reads, vetted
// ad-hoc reads that miss the plan cache, and a fixed share of appends.

const pointSelect = "SELECT e.name AS name, e.title AS title, e.projects AS projects FROM hr.emp AS e WHERE e.id = "

// writeEvery makes every writeEvery-th operation of a client an append:
// enough appends per run for a write p90, a minority of wall time.
const writeEvery = 1500

type pointMixed struct {
	singleNode
	// canon holds each id's reference answer in canonical form. A point
	// answer is a bag of rows without nested bags, so all ids share the
	// bag paths pointBags.
	canon    map[int64]string
	nextID   atomic.Int64
	appended int
}

var pointBags = map[string]bool{"": true}

func (p *pointMixed) name() string { return "point-mixed" }
func (p *pointMixed) clients() int { return 2 }

func (p *pointMixed) prepare(seed int64) error {
	hr, err := p.generate(seed)
	if err != nil {
		return err
	}
	p.nextID.Store(hrRows)
	naive, err := naiveEngine(map[string]value.Value{"hr.emp": hr})
	if err != nil {
		return err
	}
	// One naive pass computes the projection of every employee; the
	// reference answer for id k is the bag of projected rows whose id is k.
	all, err := naive.Query("SELECT e.id AS id, e.name AS name, e.title AS title, e.projects AS projects FROM hr.emp AS e")
	if err != nil {
		return err
	}
	els, _ := value.Elements(all)
	rows := make(map[int64]value.Bag, len(els))
	for _, el := range els {
		t := el.(*value.Tuple)
		idv, _ := t.Get("id")
		id, _ := value.AsInt(idv)
		row := value.EmptyTuple()
		for _, f := range t.Fields() {
			if f.Name != "id" {
				row.Put(f.Name, f.Value)
			}
		}
		rows[id] = append(rows[id], row)
	}
	p.canon = make(map[int64]string, len(rows))
	for id, bag := range rows {
		e := newExpected(bag)
		if len(e.bags) != len(pointBags) || !e.bags[""] {
			return fmt.Errorf("point answer for id %d holds nested bags", id)
		}
		p.canon[id] = e.canon
	}
	return nil
}

func (p *pointMixed) setup(tr *tracer) (*fixture, error) {
	fx, err := p.start(tr)
	if err != nil {
		return nil, err
	}
	if err := fx.warm(p.paramRead(1), p.adhocRead(2)); err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

func (p *pointMixed) paramRead(id int) *op {
	return queryOp("point-param", "id:"+strconv.Itoa(id), pointSelect+"$id", map[string]any{"$id": id}, false)
}

func (p *pointMixed) adhocRead(id int) *op {
	return queryOp("point-adhoc", "id:"+strconv.Itoa(id), pointSelect+strconv.Itoa(id), nil, true)
}

func (p *pointMixed) next(rng *rand.Rand, c, seq int) *op {
	id := 1 + rng.Intn(hrRows)
	switch {
	case seq%writeEvery == writeEvery-1:
		return p.appendOp(p.nextID.Add(1))
	case seq%4 == 3:
		return p.adhocRead(id)
	default:
		return p.paramRead(id)
	}
}

// appendOp appends one new employee whose id lies above the read range,
// so every read keeps one exact answer however the clients interleave.
func (p *pointMixed) appendOp(id int64) *op {
	t := value.EmptyTuple()
	t.Put("id", value.Int(id))
	t.Put("name", value.String(fmt.Sprintf("New Hire %d", id)))
	if id%10 != 0 {
		t.Put("title", value.String("Engineer"))
	}
	proj := value.EmptyTuple()
	proj.Put("name", value.String("Storage Engine"))
	t.Put("projects", value.Array{proj})
	src := value.Bag{t}.String()
	return &op{kind: kindWrite, label: "append", path: "/v1/collections/hr.emp?mode=append&format=sion", body: []byte(src), sion: src}
}

func (p *pointMixed) expect(key string) (*expected, error) {
	id, err := strconv.ParseInt(strings.TrimPrefix(key, "id:"), 10, 64)
	if err != nil {
		return nil, err
	}
	c, ok := p.canon[id]
	if !ok {
		c = "[]"
	}
	return &expected{canon: c, bags: pointBags}, nil
}

func (p *pointMixed) checkWrite(count int64) error {
	if count <= hrRows {
		return fmt.Errorf("append reported %d rows", count)
	}
	return nil
}

func (p *pointMixed) noteAppended(n int) { p.appended += n }

// check requires every acknowledged append to be readable.
func (p *pointMixed) check(fx *fixture) error {
	raw, err := fx.query(fmt.Sprintf("SELECT COUNT(*) AS n FROM hr.emp AS e WHERE e.id > %d", hrRows))
	if err != nil {
		return err
	}
	var got []struct{ N int }
	if err := json.Unmarshal(raw, &got); err != nil || len(got) != 1 {
		return fmt.Errorf("count appended rows: %s", raw)
	}
	if got[0].N != p.appended {
		return fmt.Errorf("%d appends acknowledged, %d readable", p.appended, got[0].N)
	}
	return nil
}

// ---------------------------------------------------------------------
// export-scan: one client; parameterized id-range projections of 2k–10k
// rows and §V-B GROUP AS regroupings that return a few large nested bags.

const (
	rangeQuery   = "SELECT e.name AS name, e.title AS title, e.projects AS projects FROM hr.emp AS e WHERE e.id >= $lo AND e.id < $hi"
	byProjectQry = "FROM hr.emp AS e, e.projects AS p WHERE e.id >= $lo AND e.id < $hi GROUP BY p.name AS project GROUP AS g SELECT project, (FROM g AS v SELECT VALUE v.e.name) AS employees"
	byTitleQry   = "FROM hr.emp AS e WHERE e.id >= $lo AND e.id < $hi GROUP BY e.title AS title GROUP AS g SELECT title, (FROM g AS v SELECT VALUE {'name': v.e.name, 'projects': v.e.projects}) AS employees"
)

type exportScan struct {
	singleNode
	readOnly
	refs
	ranges, byProject, byTitle []*op
	deck                       *deck
}

func (x *exportScan) name() string { return "export-scan" }
func (x *exportScan) clients() int { return 1 }

func (x *exportScan) prepare(seed int64) error {
	hr, err := x.generate(seed)
	if err != nil {
		return err
	}
	// Sizes follow a fixed geometric ladder from lo to hi, so every seed
	// asks for the same amount of work; the seed places the ranges.
	rng := rand.New(rand.NewSource(seed))
	pool := func(label, q string, k, lo, hi int) []*op {
		ops := make([]*op, k)
		for i := range ops {
			size := int(float64(lo) * math.Pow(float64(hi)/float64(lo), float64(i)/float64(k-1)))
			from := 1 + rng.Intn(hrRows-size)
			key := fmt.Sprintf("%s:%d:%d", label, from, from+size)
			ops[i] = queryOp(label, key, q, map[string]any{"$lo": from, "$hi": from + size}, false)
		}
		return ops
	}
	x.ranges = pool("range", rangeQuery, 12, 2000, 10000)
	x.byProject = pool("groupas-project", byProjectQry, 4, 1000, 4000)
	x.byTitle = pool("groupas-title", byTitleQry, 4, 1000, 4000)
	// One deck holds each range twice and each regrouping once: 75% range
	// projections, 25% GROUP AS.
	x.deck = newDeck(x.clients(), x.ranges, x.ranges, x.byProject, x.byTitle)

	naive, err := naiveEngine(map[string]value.Value{"hr.emp": hr})
	if err != nil {
		return err
	}
	return x.compute(x.deck.pool, func(o *op) (value.Value, error) {
		pp, err := naive.PrepareParams(o.query, paramNames(o.params)...)
		if err != nil {
			return nil, err
		}
		return pp.Exec(toValues(o.params))
	})
}

func (x *exportScan) setup(tr *tracer) (*fixture, error) {
	fx, err := x.start(tr)
	if err != nil {
		return nil, err
	}
	if err := fx.warm(x.ranges[0], x.byProject[0], x.byTitle[0]); err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

func (x *exportScan) next(rng *rand.Rand, c, seq int) *op { return x.deck.draw(rng, c, seq) }

// ---------------------------------------------------------------------
// analytic-shard: one client against a coordinator over two data nodes;
// grouped aggregates, a join with a broadcast table, top-K and a
// selective filter, each returning a few rows.

const (
	shardNodes = 2
	depts      = 20
)

type analyticShard struct {
	readOnly
	refs
	flat, dept value.Bag
	kinds      [][]*op
	deck       *deck
}

func (a *analyticShard) name() string { return "analytic-shard" }
func (a *analyticShard) clients() int { return 1 }
func (a *analyticShard) sizes() map[string]int {
	return map[string]int{"hr.flat": hrRows, "hr.dept": depts, "shards": shardNodes}
}

func (a *analyticShard) release() { a.flat, a.dept = nil, nil }

func (a *analyticShard) prepare(seed int64) error {
	a.flat = bench.FlatEmp(hrRows, depts, seed)
	a.dept = bench.Departments(depts, seed)
	rng := rand.New(rand.NewSource(seed))
	literal := func(label string, qs ...string) []*op {
		ops := make([]*op, len(qs))
		for i, q := range qs {
			ops[i] = queryOp(label, q, q, nil, false)
		}
		return ops
	}
	// The thresholds are fixed, so every seed asks for the same amount of
	// work; the seed picks the top-K departments. By cost a round sorts
	// into 6 filters, 8 top-Ks, 4 aggregates and 4 joins, so the read p50
	// (11th of 22) falls mid-way through the top-Ks and the p90 (20th)
	// inside the joins, away from the boundary between two kinds of
	// request, where a percentile jumps from run to run.
	var group, join, topk, filter []string
	for _, t := range []string{"Engineer", "Manager", "Analyst", "Chief Architect"} {
		group = append(group, fmt.Sprintf("SELECT x.deptno AS deptno, COUNT(*) AS n, SUM(x.salary) AS total, AVG(x.salary) AS mean, MAX(x.salary) AS top FROM hr.flat AS x WHERE x.title = '%s' GROUP BY x.deptno AS deptno", t))
	}
	for _, min := range []int{80000, 110000, 140000, 170000} {
		join = append(join, fmt.Sprintf("SELECT d.name AS dept, COUNT(*) AS n, AVG(x.salary) AS mean FROM hr.flat AS x JOIN hr.dept AS d ON x.deptno = d.dno WHERE x.salary >= %d GROUP BY d.name AS dept", min))
	}
	for _, d := range rng.Perm(depts)[:8] {
		topk = append(topk, fmt.Sprintf("SELECT x.name AS name, x.salary AS salary FROM hr.flat AS x WHERE x.deptno = %d ORDER BY x.salary DESC, x.name LIMIT 10", d+1))
	}
	for _, min := range []int{199600, 199700, 199750, 199800, 199900, 199950} {
		filter = append(filter, fmt.Sprintf("SELECT x.name AS name, x.deptno AS deptno, x.salary AS salary FROM hr.flat AS x WHERE x.salary > %d", min))
	}
	a.kinds = [][]*op{literal("group", group...), literal("join-group", join...), literal("topk", topk...), literal("filter", filter...)}
	a.deck = newDeck(a.clients(), a.kinds...)

	naive, err := naiveEngine(map[string]value.Value{"hr.flat": a.flat, "hr.dept": a.dept})
	if err != nil {
		return err
	}
	return a.compute(a.deck.pool, func(o *op) (value.Value, error) { return naive.Query(o.query) })
}

// setup starts two stock data-node servers and a coordinator-mode front
// server, distributes the flat rows by range and broadcasts dept.
func (a *analyticShard) setup(tr *tracer) (*fixture, error) {
	fx := &fixture{}
	opts := &sqlpp.Options{Parallelism: 1}
	st := newTransport()
	fx.transports = append(fx.transports, st)
	shardClient := &http.Client{Transport: propagating{t: tr, next: st}}
	execs := make([]shard.Executor, shardNodes)
	for i := range execs {
		eng := sqlpp.New(opts)
		node := httptest.NewServer(tr.middleware("datanode.handle", server.New(eng, server.Config{})))
		fx.nodes = append(fx.nodes, node)
		fx.nodeEng = append(fx.nodeEng, eng)
		execs[i] = timedExecutor{Executor: shard.NewHTTP(fmt.Sprintf("n%d", i), node.URL, shardClient), t: tr, idx: i}
	}
	fx.coord = shard.NewCoordinator(sqlpp.New(opts), shard.Policy{}, execs...)
	fail := func(err error) (*fixture, error) {
		fx.close()
		return nil, err
	}
	if err := fx.coord.Distribute("hr.flat", a.flat, shard.Spec{Kind: shard.Range}); err != nil {
		return fail(err)
	}
	if err := fx.coord.Broadcast("hr.dept", a.dept); err != nil {
		return fail(err)
	}
	fx.serve(tr, server.New(fx.coord.Engine(), server.Config{Coordinator: fx.coord}))
	for _, ops := range a.kinds {
		if err := fx.warm(ops...); err != nil {
			return fail(err)
		}
	}
	return fx, nil
}

func (a *analyticShard) next(rng *rand.Rand, c, seq int) *op { return a.deck.draw(rng, c, seq) }

func (a *analyticShard) layerSetup(tr *tracer) {
	parts, err := shard.Partition(a.flat, shard.Spec{Name: "hr.flat"}, shardNodes)
	if err != nil {
		return
	}
	timeShardIngestLayers(tr, parts[0].String(), a.flat)
}
