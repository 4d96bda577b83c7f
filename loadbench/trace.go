package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlpp/internal/shard"
)

// span is one timed call into a layer. Spans of one operation share op;
// parent links a span to the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counts measured at the same boundary; zero when not applicable.
	Rows     int64  `json:"rows,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	Allocs   int64  `json:"allocs,omitempty"`
	Probes   int64  `json:"probes,omitempty"`
	Hits     int64  `json:"hits,omitempty"`
	Examined int64  `json:"examined,omitempty"`
	Shard    int    `json:"shard,omitempty"`
	Note     string `json:"note,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory while it is on. When it is off every hook
// costs one atomic load, so the untraced run pays nothing else.
type tracer struct {
	on    atomic.Bool
	ids   atomic.Int64
	epoch time.Time

	mu    sync.Mutex
	spans []span
	calls map[int64][]shardCall
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin allocates a span id and its start time; finish records it.
func (t *tracer) begin(name string, op, parent int64) span {
	return span{ID: t.ids.Add(1), Parent: parent, Op: op, Name: name, Start: t.now()}
}

func (t *tracer) finish(s span) {
	s.End = t.now()
	t.add(s)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// shardCall is one per-shard query of an operation, kept for the replay.
type shardCall struct {
	shard int
	query string
}

func (t *tracer) addCall(op int64, c shardCall) {
	t.mu.Lock()
	if t.calls == nil {
		t.calls = map[int64][]shardCall{}
	}
	t.calls[op] = append(t.calls[op], c)
	t.mu.Unlock()
}

func (t *tracer) popCalls(op int64) []shardCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.calls[op]
	delete(t.calls, op)
	return c
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// spanRef identifies the active span of an operation; it travels in the
// request context inside a process and in spanHeader across HTTP.
type spanRef struct{ op, id int64 }

type spanKey struct{}

const spanHeader = "X-Loadbench-Span"

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func spanFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

func (r spanRef) header() string {
	return strconv.FormatInt(r.op, 10) + "/" + strconv.FormatInt(r.id, 10)
}

func parseSpanHeader(h string) spanRef {
	op, id, ok := strings.Cut(h, "/")
	if !ok {
		return spanRef{}
	}
	o, _ := strconv.ParseInt(op, 10, 64)
	i, _ := strconv.ParseInt(id, 10, 64)
	return spanRef{op: o, id: i}
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// middleware times an HTTP handler as a span named name, parented on the
// caller's span from spanHeader, and records the response size.
func (t *tracer) middleware(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		caller := parseSpanHeader(r.Header.Get(spanHeader))
		s := t.begin(name, caller.op, caller.id)
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r.WithContext(withSpan(r.Context(), spanRef{op: caller.op, id: s.ID})))
		s.Bytes = cw.n
		t.finish(s)
	})
}

// propagating is an http.RoundTripper that forwards the context's span to
// the callee in spanHeader, so a data node's handler span joins the
// coordinator's shard call.
type propagating struct {
	t    *tracer
	next http.RoundTripper
}

func (p propagating) RoundTrip(r *http.Request) (*http.Response, error) {
	if p.t.on.Load() {
		if ref := spanFrom(r.Context()); ref.id != 0 {
			r = r.Clone(r.Context())
			r.Header.Set(spanHeader, ref.header())
		}
	}
	return p.next.RoundTrip(r)
}

// timedExecutor decorates a shard executor: every Exec becomes a
// shard.call span carrying the per-shard query text for the replay.
type timedExecutor struct {
	shard.Executor
	t   *tracer
	idx int
}

func (x timedExecutor) Exec(ctx context.Context, req shard.Request) (*shard.Response, error) {
	if !x.t.on.Load() {
		return x.Executor.Exec(ctx, req)
	}
	caller := spanFrom(ctx)
	s := x.t.begin("shard.call", caller.op, caller.id)
	s.Shard = x.idx
	s.Note = req.Query
	resp, err := x.Executor.Exec(withSpan(ctx, spanRef{op: caller.op, id: s.ID}), req)
	x.t.finish(s)
	x.t.addCall(caller.op, shardCall{shard: x.idx, query: req.Query})
	return resp, err
}

// selfTimes derives each span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][][2]int64{}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if curHi < 0 || a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the environment stamp and then one span per line,
// gzip-compressed, to path.
func writeSpans(path string, env map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	if err := enc.Encode(map[string]any{"env": env, "spans": len(spans)}); err != nil {
		f.Close()
		return err
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
