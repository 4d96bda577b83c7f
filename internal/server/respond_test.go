package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"
	"time"

	"sqlpp"
	"sqlpp/internal/datafmt"
	"sqlpp/internal/sion"
	"sqlpp/internal/value"
)

// refResponse is the envelope as it was written before respond: the
// result encoded to a string, held as a json.RawMessage, and the whole
// struct re-compacted by json.Encoder. respond must match it byte for
// byte.
type refResponse struct {
	Result        json.RawMessage    `json:"result"`
	Cached        bool               `json:"cached"`
	ElapsedUS     int64              `json:"elapsed_us"`
	Plan          []string           `json:"plan,omitempty"`
	Stats         *sqlpp.OpStats     `json:"stats,omitempty"`
	Diagnostics   []sqlpp.Diagnostic `json:"diagnostics,omitempty"`
	Class         string             `json:"class,omitempty"`
	Sharded       string             `json:"sharded,omitempty"`
	MissingShards []string           `json:"missing_shards,omitempty"`
}

func refBody(t *testing.T, v value.Value, format string, r *queryResponse) []byte {
	t.Helper()
	var raw []byte
	var err error
	switch format {
	case "", "json":
		var s string
		s, err = datafmt.JSONString(v)
		raw = []byte(s)
	case "sion":
		raw, err = json.Marshal(v.String())
	case "pretty":
		raw, err = json.Marshal(value.Pretty(v))
	}
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(refResponse{
		Result: raw, Cached: r.Cached, ElapsedUS: r.ElapsedUS, Plan: r.Plan, Stats: r.Stats,
		Diagnostics: r.Diagnostics, Class: r.Class, Sharded: r.Sharded, MissingShards: r.MissingShards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var elapsedRE = regexp.MustCompile(`,"elapsed_us":(\d+)`)

func TestRespondMatchesEncoderEnvelope(t *testing.T) {
	eng := sqlpp.New(nil)
	if err := eng.RegisterSION("t", `{{ {'a': 1, 's': '<b>&</b>'}, {'a': 2} }}`); err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare("FROM t AS x WHERE x.a > 1 SELECT VALUE x")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := prep.ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	vetted, err := eng.WithOptions(sqlpp.Options{Vet: true}).Prepare("FROM t AS x, t AS y SELECT VALUE x.a")
	if err != nil {
		t.Fatal(err)
	}
	diags := vetted.Diagnostics()
	if len(diags) == 0 {
		t.Fatal("want a vet diagnostic to encode")
	}
	results := []value.Value{
		sion.MustParse(`{{ {'s': 'x<y>&z\u2028', 'n': 2.5e300, 'b': {{3, 1, 2}}}, {'s': 'a', 'n': -0.0} }}`),
		sion.MustParse(`[1, null, true, 'é']`),
		value.Bag{},
		value.Int(7),
	}
	envelopes := []queryResponse{
		{},
		{Cached: true, Plan: []string{"hash-join(1) at 1:1", "<&>"}},
		{Plan: []string{}, Stats: stats, Diagnostics: diags},
		{Plan: []string{"scatter"}, Stats: stats, Class: "concat", Sharded: "t&u", MissingShards: []string{"s1", "s<2>"}},
	}
	s := New(eng, Config{})
	for _, v := range results {
		for _, format := range []string{"", "json", "sion", "pretty"} {
			for _, env := range envelopes {
				env := env
				rec := httptest.NewRecorder()
				s.respond(context.Background(), rec, time.Now(), v, format, &env)
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
				m := elapsedRE.FindSubmatch(rec.Body.Bytes())
				if m == nil {
					t.Fatalf("no elapsed_us in %s", rec.Body)
				}
				env.ElapsedUS, _ = strconv.ParseInt(string(m[1]), 10, 64)
				if want := refBody(t, v, format, &env); !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("format %q:\n got %s\nwant %s", format, rec.Body, want)
				}
			}
		}
	}
}

// TestRespondEncodeFailures checks that a result that cannot be encoded
// fails the request without being observed as a success: MISSING is a
// 422, an encode that ends past the deadline a 504 counted as a timeout,
// in every format and whether or not the encoder polls.
func TestRespondEncodeFailures(t *testing.T) {
	big := make(value.Bag, 5000)
	for i := range big {
		big[i] = value.Int(int64(len(big) - i))
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name     string
		ctx      context.Context
		result   value.Value
		format   string
		status   int
		timeouts uint64
	}{
		{"missing", context.Background(), value.Bag{value.Int(1), value.Missing}, "json", http.StatusUnprocessableEntity, 0},
		{"cancelled json", cancelled, big, "json", http.StatusGatewayTimeout, 1},
		{"cancelled short json", cancelled, value.Bag{value.Int(1)}, "json", http.StatusGatewayTimeout, 1},
		{"cancelled sion", cancelled, big, "sion", http.StatusGatewayTimeout, 1},
		{"cancelled pretty", cancelled, big, "pretty", http.StatusGatewayTimeout, 1},
	}
	for _, c := range cases {
		s := New(sqlpp.New(nil), Config{})
		rec := httptest.NewRecorder()
		s.respond(c.ctx, rec, time.Now(), c.result, c.format, &queryResponse{})
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d: %s", c.name, rec.Code, c.status, rec.Body)
		}
		m := s.Metrics()
		if m.Errors.Load() != 1 || m.Timeouts.Load() != c.timeouts {
			t.Errorf("%s: errors=%d timeouts=%d, want 1 and %d", c.name, m.Errors.Load(), m.Timeouts.Load(), c.timeouts)
		}
		if p := m.lat.percentiles(0.5); p[0] != 0 {
			t.Errorf("%s: a failed encode was observed as a success (p50 %s)", c.name, p[0])
		}
	}
}
