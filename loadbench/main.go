// Command loadbench is the repository's end-to-end benchmark. It starts
// the real sqlpp HTTP service (internal/server) on loopback, loads it
// through the public ingest and index endpoints, and drives it with
// closed-loop clients from one process. Every answer is checked against
// the naive reference pipeline.
//
//	go run . --workload point-mixed --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 the first half of the window runs untraced and the second
// half replays the same seeded operations with spans recorded around each
// layer's public entry points; it reports the per-layer metrics and writes
// the spans to --spans. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRounds is how many times a run sets the service up; setup_s is the
// median, and the last round's service is the one measured.
const setupRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "point-mixed, export-scan or analytic-shard")
	seed := flag.Int64("seed", 1, "seed for data and operations")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	spans := flag.String("spans", ".bench_build/loadbench", "directory for span output")
	flag.Parse()

	sc, ok := scenarios[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "loadbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "loadbench: --seconds must be at least 1")
		os.Exit(2)
	}
	res, err := run(sc(), *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run prepares the workload, sets the service up setupRounds times,
// measures, verifies and derives the metrics.
func run(sc scenario, seed int64, window time.Duration, traced bool, spanDir string) (*result, error) {
	if err := sc.prepare(seed); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	tr := newTracer()
	var fx *fixture
	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		if fx != nil {
			fx.close()
			fx = nil
			runtime.GC()
		}
		start := time.Now()
		f, err := sc.setup(tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		fx = f
	}
	defer fx.close()
	if traced {
		sc.layerSetup(tr)
	}
	sc.release()
	runtime.GC()

	plain := window
	if traced {
		plain = window / 2
	}
	before, err := fx.scrape()
	if err != nil {
		return nil, err
	}
	w1 := drive(fx, sc, seed, plain, nil)
	after, err := fx.scrape()
	if err != nil {
		return nil, err
	}
	v1 := verify(sc, w1)
	problems := append(v1.problems, crossCheck(before, after, v1)...)

	env := map[string]any{
		"workload":   sc.name(),
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"data":       sc.sizes(),
		"clients":    sc.clients(),
		"window_s":   plain.Seconds(),
		"setup_s":    setups,
		"ops":        v1.kinds(),
		"samples":    v1.samples(),
		"slices":     v1.slices(),
		"server_clock": map[string]float64{
			"metrics_p50_us": after["sqlpp_latency_p50_us"],
			"client_p50_us":  v1.readP(0.5) * 1000,
		},
	}

	res := &result{Attempted: v1.attempted, Failed: v1.failed, Metrics: map[string]metric{}}
	if !traced {
		res.Metrics = endToEnd(v1, median(setups))
	} else {
		tr.on.Store(true)
		rp := newReplayer(tr, fx)
		runtime.GC()
		tb, err := fx.scrape()
		if err != nil {
			return nil, err
		}
		w2 := drive(fx, sc, seed, window-plain, rp)
		ta, err := fx.scrape()
		if err != nil {
			return nil, err
		}
		tr.on.Store(false)
		v2 := verify(sc, w2)
		problems = append(problems, v2.problems...)
		problems = append(problems, crossCheck(tb, ta, v2)...)
		res.Attempted += v2.attempted
		res.Failed += v2.failed
		spans := tr.take()
		res.Metrics = layerMetrics(spans, v1, v2, tb, ta, rp)
		env["traced_ops"] = v2.kinds()
		env["traced_samples"] = v2.samples()
		env["spans"] = len(spans)
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", sc.name(), seed))
		if err := writeSpans(path, env, spans); err != nil {
			return nil, err
		}
		env["span_file"] = path
	}
	if err := sc.check(fx); err != nil {
		problems = append(problems, err.Error())
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	env["problems"] = problems
	env["failed_op_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	detail, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(detail))
	return res, nil
}

// crossCheck compares the server's own failure counters over a window
// (from /metrics scraped before and after it) with the failures the
// client saw: every non-2xx reply is one sqlpp_errors_total, and
// timeouts are a subset of the errors.
func crossCheck(before, after map[string]float64, v *verdict) []string {
	var out []string
	errs := after["sqlpp_errors_total"] - before["sqlpp_errors_total"]
	if errs != float64(v.non2xx) {
		out = append(out, fmt.Sprintf("server counted %v errors, client saw %d non-2xx replies", errs, v.non2xx))
	}
	if t := after["sqlpp_timeouts_total"] - before["sqlpp_timeouts_total"]; t > errs {
		out = append(out, fmt.Sprintf("server counted %v timeouts but %v errors", t, errs))
	}
	return out
}

// endToEnd derives the metrics a client of the service sees.
func endToEnd(v *verdict, setup float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {setup, "s"},
		"throughput_ops_s": {v.throughput(), "1/s"},
		"read_p50_ms":      {v.readP(0.5), "ms"},
		"read_p90_ms":      {v.readP(0.9), "ms"},
		"alloc_kb_per_op":  {v.allocKBPerOp(), "KiB"},
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
