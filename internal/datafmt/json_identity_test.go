package datafmt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"

	"sqlpp"
	"sqlpp/internal/bench"
	"sqlpp/internal/datafmt"
	"sqlpp/internal/value"
)

// refJSON is the comparison-sort JSON encoder the order-key encoder
// replaced: bags sorted with sort.SliceStable over value.Compare, one
// json.Marshal per string and attribute name. Every encoding must match
// it byte for byte.
func refJSON(buf *bytes.Buffer, v value.Value) error {
	switch x := v.(type) {
	case value.Bool:
		buf.WriteString(strconv.FormatBool(bool(x)))
	case value.Int:
		buf.WriteString(strconv.FormatInt(int64(x), 10))
	case value.Float:
		f := float64(x)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			buf.WriteString("null")
			return nil
		}
		buf.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	case value.String:
		b, err := json.Marshal(string(x))
		if err != nil {
			return err
		}
		buf.Write(b)
	case value.Bytes:
		fmt.Fprintf(buf, `"%x"`, []byte(x))
	case value.Array:
		return refJSONSeq(buf, x)
	case value.Bag:
		sorted := append([]value.Value(nil), x...)
		sort.SliceStable(sorted, func(i, j int) bool { return value.Compare(sorted[i], sorted[j]) < 0 })
		return refJSONSeq(buf, sorted)
	case *value.Tuple:
		buf.WriteByte('{')
		for i, f := range x.Fields() {
			if i > 0 {
				buf.WriteByte(',')
			}
			b, err := json.Marshal(f.Name)
			if err != nil {
				return err
			}
			buf.Write(b)
			buf.WriteByte(':')
			if err := refJSON(buf, f.Value); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	default:
		if v.Kind() == value.KindNull {
			buf.WriteString("null")
			return nil
		}
		return fmt.Errorf("cannot encode %s", v.Kind())
	}
	return nil
}

func refJSONSeq(buf *bytes.Buffer, vs []value.Value) error {
	buf.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			buf.WriteByte(',')
		}
		if err := refJSON(buf, v); err != nil {
			return err
		}
	}
	buf.WriteByte(']')
	return nil
}

func checkIdentical(t *testing.T, v value.Value) {
	t.Helper()
	var want bytes.Buffer
	wantErr := refJSON(&want, v)
	got, err := datafmt.JSONString(v)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("JSONString(%v) error %v, reference error %v", v, err, wantErr)
	}
	if err == nil && got != want.String() {
		t.Fatalf("JSONString(%v)\n got %s\nwant %s", v, got, want.String())
	}
}

// heteroStrings exercise every escaping branch: HTML characters,
// control bytes, invalid UTF-8, the JavaScript line separators, and NUL.
var heteroStrings = []string{
	"", "a", "b", "a\x00", "<&>", "\"\\", "\b\f\n\r\t\x01\x1f\x7f", "\xff", "a\xc3",
	"é", "\u2028a\u2029", "日本", "\U0001F600",
}

// heteroValue generates a random heterogeneous query result: mixed
// kinds in every collection, bags nested in bags and tuples, duplicate
// attribute names, numbers that compare equal across Int and Float.
func heteroValue(r *rand.Rand, depth int) value.Value {
	n := 11
	if depth <= 0 {
		n = 7
	}
	switch r.Intn(n) {
	case 0:
		return value.Null
	case 1:
		return value.Bool(r.Intn(2) == 0)
	case 2:
		return value.Int(r.Intn(7) - 3)
	case 3:
		fs := []float64{0, math.Copysign(0, -1), 1, -1.5, 2.5e300, math.NaN(), math.Inf(1), 1 << 53}
		return value.Float(fs[r.Intn(len(fs))])
	case 4:
		ints := []int64{math.MinInt64, math.MaxInt64, 1<<53 + 1, 1e21 / 1e3}
		return value.Int(ints[r.Intn(len(ints))])
	case 5:
		return value.String(heteroStrings[r.Intn(len(heteroStrings))])
	case 6:
		return value.Bytes(heteroStrings[r.Intn(len(heteroStrings))])
	case 7:
		out := make(value.Array, r.Intn(4))
		for i := range out {
			out[i] = heteroValue(r, depth-1)
		}
		return out
	case 8, 9:
		out := make(value.Bag, r.Intn(6))
		for i := range out {
			out[i] = heteroValue(r, depth-1)
		}
		return out
	default:
		t := value.EmptyTuple()
		for i, k := 0, r.Intn(4); i < k; i++ {
			t.Put(heteroStrings[r.Intn(4)], heteroValue(r, depth-1))
		}
		return t
	}
}

func TestJSONStringMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		checkIdentical(t, heteroValue(r, 3))
	}
	checkIdentical(t, value.Bag{value.Int(1), value.Missing})
	checkIdentical(t, value.Bag{value.Missing})
}

// The export-scan query shapes: a range projection and the two §V-B
// GROUP AS regroupings, over the nested employee collection.
const (
	exportRange     = "SELECT e.name AS name, e.title AS title, e.projects AS projects FROM hr.emp AS e WHERE e.id >= %d AND e.id < %d"
	exportByProject = "FROM hr.emp AS e, e.projects AS p WHERE e.id >= %d AND e.id < %d GROUP BY p.name AS project GROUP AS g SELECT project, (FROM g AS v SELECT VALUE v.e.name) AS employees"
	exportByTitle   = "FROM hr.emp AS e WHERE e.id >= %d AND e.id < %d GROUP BY e.title AS title GROUP AS g SELECT title, (FROM g AS v SELECT VALUE {'name': v.e.name, 'projects': v.e.projects}) AS employees"
)

var exportEngine = sync.OnceValues(func() (*sqlpp.Engine, error) {
	eng := sqlpp.New(nil)
	hr := bench.HR(bench.HROptions{N: 10000, MissingStyle: true, AbsentTitleRate: 10, Seed: 1})
	return eng, eng.Register("hr.emp", hr)
})

func exportResult(tb testing.TB, query string, lo, hi int) value.Value {
	tb.Helper()
	eng, err := exportEngine()
	if err != nil {
		tb.Fatal(err)
	}
	v, err := eng.Query(fmt.Sprintf(query, lo, hi))
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

func TestJSONStringExportShapes(t *testing.T) {
	for _, q := range []string{exportRange, exportByProject, exportByTitle} {
		checkIdentical(t, exportResult(t, q, 101, 2101))
	}
}

func TestAppendJSONCancelled(t *testing.T) {
	big := make(value.Bag, 10000)
	for i := range big {
		big[i] = value.Int(int64(i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := datafmt.AppendJSON(ctx, nil, big); !errors.Is(err, context.Canceled) {
		t.Fatalf("AppendJSON on a cancelled context: err = %v, want context.Canceled", err)
	}
	// A collection shorter than the poll interval finishes regardless.
	if out, err := datafmt.AppendJSON(ctx, nil, big[:3]); err != nil || string(out) != "[0,1,2]" {
		t.Fatalf("short bag: %s, %v", out, err)
	}
}

func FuzzJSONString(f *testing.F) {
	for _, s := range heteroStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := datafmt.AppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSONString(%q) = %s, json.Marshal = %s", s, got, want)
		}
	})
}

// BenchmarkEncodeJSON encodes the export-scan result shapes: a
// 4,500-row range projection and the GROUP AS regroupings of 4,000
// employees by project and by title.
func BenchmarkEncodeJSON(b *testing.B) {
	for _, c := range []struct {
		name   string
		query  string
		lo, hi int
	}{
		{"range-4500", exportRange, 1001, 5501},
		{"groupas-project-4000", exportByProject, 1001, 5001},
		{"groupas-title-4000", exportByTitle, 1001, 5001},
	} {
		b.Run(c.name, func(b *testing.B) {
			v := exportResult(b, c.query, c.lo, c.hi)
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = datafmt.AppendJSON(context.Background(), buf[:0], v); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}
