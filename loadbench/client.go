package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type opKind int

const (
	kindRead opKind = iota
	kindWrite
)

// op is one request of a workload's seeded stream.
type op struct {
	kind  opKind
	label string // operation kind, for sample counts
	path  string // request path on the front server
	body  []byte
	// key names the reference answer (reads).
	key string
	// The request as the server sees it, for the traced replay.
	query  string
	params map[string]any
	vet    bool
	sion   string // append payload (writes)
}

// record is one completed request.
type record struct {
	op     *op
	opID   int64
	lat    time.Duration
	done   time.Time
	status int
	body   []byte
	err    error
}

// window is one measured stretch of closed-loop load.
type window struct {
	recs       []record
	start      time.Time
	elapsed    time.Duration
	allocBytes uint64
	gcCycles   uint32
}

var opIDs atomic.Int64

// drive runs sc's clients in a closed loop for d: each client sends its
// next operation only after the previous reply has been read (and, when
// rp is set, replayed layer by layer). Both windows of a run start the
// same seeded streams.
func drive(fx *fixture, sc scenario, seed int64, d time.Duration, rp *replayer) *window {
	n := sc.clients()
	recs := make([][]record, n)
	ends := make([]time.Time, n)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			for seq := 0; time.Now().Before(deadline); seq++ {
				o := sc.next(rng, c, seq)
				rec := fx.send(o, rp)
				recs[c] = append(recs[c], rec)
			}
			ends[c] = time.Now()
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	w := &window{
		start:      start,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		gcCycles:   ms1.NumGC - ms0.NumGC,
	}
	for c := range recs {
		w.recs = append(w.recs, recs[c]...)
		if e := ends[c].Sub(start); e > w.elapsed {
			w.elapsed = e
		}
	}
	return w
}

// send issues one request and reads the whole reply. With a replayer it
// records the client span, then replays the operation's layer calls.
func (fx *fixture) send(o *op, rp *replayer) record {
	rec := record{op: o, opID: opIDs.Add(1)}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, fx.front.URL+o.path, bytes.NewReader(o.body))
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	var cs span
	if rp != nil {
		cs = rp.tr.begin("client.request", rec.opID, 0)
		req.Header.Set(spanHeader, spanRef{op: rec.opID, id: cs.ID}.header())
	}
	t0 := time.Now()
	resp, err := fx.client.Do(req)
	if err == nil {
		rec.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.status = resp.StatusCode
	}
	rec.done = time.Now()
	rec.lat = rec.done.Sub(t0)
	rec.err = err
	if rp != nil {
		cs.Bytes = int64(len(rec.body))
		rp.tr.finish(cs)
		rp.replay(rec)
	}
	return rec
}

// envelope is the part of a server reply the benchmark reads.
type envelope struct {
	Result    json.RawMessage `json:"result"`
	Cached    bool            `json:"cached"`
	ElapsedUS int64           `json:"elapsed_us"`
	Count     int64           `json:"count"`
}

// verdict is a window after every reply has been checked.
type verdict struct {
	w         *window
	attempted int
	failed    int
	non2xx    int
	ok        int
	byLabel   map[string]int       // attempts per operation kind
	labelLat  map[string][]float64 // ms, successful operations per kind
	reads     []float64            // ms, successful reads
	writes    []float64            // ms, successful writes
	appended  int
	problems  []string
}

// verify checks every reply of w against the reference answers. It runs
// after the window closes, so checking costs no measured time.
func verify(sc scenario, w *window) *verdict {
	v := &verdict{w: w, byLabel: map[string]int{}, labelLat: map[string][]float64{}}
	matched := map[string]string{} // key → a raw result already shown equal
	for i := range w.recs {
		r := &w.recs[i]
		v.attempted++
		v.byLabel[r.op.label]++
		if err := check(sc, r, matched); err != nil {
			v.failed++
			if r.err == nil && r.status/100 != 2 {
				v.non2xx++
			}
			if len(v.problems) < 5 {
				v.problems = append(v.problems, fmt.Sprintf("%s op %d: %v", r.op.label, r.opID, err))
			}
			continue
		}
		v.ok++
		ms := float64(r.lat) / float64(time.Millisecond)
		v.labelLat[r.op.label] = append(v.labelLat[r.op.label], ms)
		if r.op.kind == kindWrite {
			v.writes = append(v.writes, ms)
			v.appended++
		} else {
			v.reads = append(v.reads, ms)
		}
	}
	sort.Float64s(v.reads)
	sort.Float64s(v.writes)
	sc.noteAppended(v.appended)
	return v
}

func check(sc scenario, r *record, matched map[string]string) error {
	if r.err != nil {
		return r.err
	}
	if r.status/100 != 2 {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	var env envelope
	if err := json.Unmarshal(r.body, &env); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	if r.op.kind == kindWrite {
		return sc.checkWrite(env.Count)
	}
	if m, ok := matched[r.op.key]; ok && m == string(env.Result) {
		return nil
	}
	want, err := sc.expect(r.op.key)
	if err != nil {
		return err
	}
	if !want.matches(env.Result) {
		return fmt.Errorf("answer differs from the reference for %s", r.op.key)
	}
	matched[r.op.key] = string(env.Result)
	return nil
}

// percentile is the nearest-rank percentile of sorted xs; 0 when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

func (v *verdict) readP(p float64) float64  { return percentile(v.reads, p) }
func (v *verdict) writeP(p float64) float64 { return percentile(v.writes, p) }

func (v *verdict) throughput() float64 {
	return float64(v.ok) / v.w.elapsed.Seconds()
}

func (v *verdict) allocKBPerOp() float64 {
	return float64(v.w.allocBytes) / 1024 / float64(max(v.attempted, 1))
}

// slices reports, per second of the window, the operations completed and
// the read p50 in that second.
func (v *verdict) slices() map[string]any {
	n := int(v.w.elapsed/time.Second) + 1
	ops := make([]int, n)
	lat := make([][]float64, n)
	for i := range v.w.recs {
		r := &v.w.recs[i]
		k := int(r.done.Sub(v.w.start) / time.Second)
		ops[k]++
		if r.op.kind == kindRead {
			lat[k] = append(lat[k], float64(r.lat)/float64(time.Millisecond))
		}
	}
	p50 := make([]float64, n)
	for k := range lat {
		sort.Float64s(lat[k])
		p50[k] = percentile(lat[k], 0.5)
	}
	return map[string]any{"ops": ops, "read_p50_ms": p50}
}

// kinds reports, per operation kind, the attempts and the median latency.
func (v *verdict) kinds() map[string]any {
	out := map[string]any{}
	for label, n := range v.byLabel {
		lat := append([]float64(nil), v.labelLat[label]...)
		sort.Float64s(lat)
		out[label] = map[string]any{"attempted": n, "p50_ms": percentile(lat, 0.5)}
	}
	return out
}

// samples reports each latency's sample count and how many samples lie
// beyond its p90, so a reader can check the percentile is supported.
func (v *verdict) samples() map[string]any {
	beyond := func(n int) int { return n - int(math.Ceil(0.9*float64(n))) }
	return map[string]any{
		"read":             len(v.reads),
		"read_beyond_p90":  beyond(len(v.reads)),
		"write":            len(v.writes),
		"write_beyond_p90": beyond(len(v.writes)),
		"read_p50_ms":      v.readP(0.5),
		"read_p90_ms":      v.readP(0.9),
		"write_p50_ms":     v.writeP(0.5),
		"write_p90_ms":     v.writeP(0.9),
		"elapsed_s":        v.w.elapsed.Seconds(),
	}
}
