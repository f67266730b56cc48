package report

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"kwsdbg/internal/core"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/probecache"
)

// reportedQueries lists every query a report shows: answers, non-answers,
// their MPANs, and the unclassified candidate networks.
func reportedQueries(out *core.Output) []core.QueryInfo {
	qs := append([]core.QueryInfo(nil), out.Answers...)
	for _, na := range out.NonAnswers {
		qs = append(qs, na.Query)
		qs = append(qs, na.MPANs...)
	}
	return append(qs, out.Unclassified...)
}

// jsonQueries is reportedQueries over a decoded JSON report, in the same
// order.
func jsonQueries(t *testing.T, raw []byte) []jsonQuery {
	t.Helper()
	var jo jsonOutput
	if err := json.Unmarshal(raw, &jo); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	qs := append([]jsonQuery(nil), jo.Answers...)
	for _, jd := range jo.NonAnswers {
		qs = append(qs, jd.Query)
		qs = append(qs, jd.MPANs...)
	}
	return append(qs, jo.Unclassified...)
}

// hasKey reports whether a decoded JSON value has an object key named key at
// any depth.
func hasKey(v any, key string) bool {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			if k == key || hasKey(child, key) {
				return true
			}
		}
	case []any:
		for _, child := range v {
			if hasKey(child, key) {
				return true
			}
		}
	}
	return false
}

// TestSQLRenderedOnRequest pins the report's SQL to the lattice's rendering
// for every kind of reported query, and its absence without ShowSQL. The
// budgeted run leaves candidate networks unclassified, so all four kinds
// appear.
func TestSQLRenderedOnRequest(t *testing.T) {
	sys, _ := exampleOutput(t)
	kws := []string{"saffron", "scented", "candle"}
	var outs []*core.Output
	for _, opts := range []core.Options{
		{Strategy: core.SBH, BypassCache: true},
		{Strategy: core.BU, BypassCache: true, ProbeBudget: 1},
	} {
		out, err := sys.Debug(kws, opts)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	if len(outs[0].Answers) == 0 || len(outs[0].NonAnswers) == 0 || len(outs[1].Unclassified) == 0 {
		t.Fatalf("want answers, non-answers and unclassified queries; got %d, %d, %d",
			len(outs[0].Answers), len(outs[0].NonAnswers), len(outs[1].Unclassified))
	}
	for _, out := range outs {
		qs := reportedQueries(out)
		var buf bytes.Buffer
		if err := JSON(&buf, out, true); err != nil {
			t.Fatal(err)
		}
		got := jsonQueries(t, buf.Bytes())
		if len(got) != len(qs) {
			t.Fatalf("JSON lists %d queries, the output %d", len(got), len(qs))
		}
		var text strings.Builder
		if err := Text(&text, out, Options{ShowSQL: true}); err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			want, err := sys.Lattice().SQL(sys.Lattice().Node(q.NodeID), kws, false)
			if err != nil {
				t.Fatal(err)
			}
			if got[i].Node != q.NodeID || got[i].SQL != want {
				t.Errorf("query %d (node %d): JSON sql = %q, want %q", i, q.NodeID, got[i].SQL, want)
			}
			if out.SQL(q) != want {
				t.Errorf("Output.SQL(node %d) = %q, want %q", q.NodeID, out.SQL(q), want)
			}
			// The text report shows no SQL for unclassified queries.
			if i < len(qs)-len(out.Unclassified) && !strings.Contains(text.String(), want) {
				t.Errorf("text report lacks the SQL of node %d", q.NodeID)
			}
		}

		buf.Reset()
		if err := JSON(&buf, out, false); err != nil {
			t.Fatal(err)
		}
		var decoded any
		if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
			t.Fatal(err)
		}
		if hasKey(decoded, "sql") {
			t.Errorf("JSON without ShowSQL has an sql key:\n%s", buf.String())
		}
	}
}

// TestWarmReportAllocBudget pins the allocations of a warm level-3 Debug of
// Table 2's Q1 plus its JSON report. SQL rendering costs far more than the
// 10% headroom, so a report path that renders SQL it does not show fails
// here.
func TestWarmReportAllocBudget(t *testing.T) {
	const budget = 191 // 174 measured, plus 10%
	eng, err := dblife.Generate(dblife.Config{Seed: 1, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(eng, lattice.Options{MaxJoins: 2, KeywordSlots: 3})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetProbeCache(probecache.New(probecache.Config{}))
	q1 := dblife.Workload()[0].Keywords
	run := func() {
		out, err := sys.Debug(q1, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := JSON(io.Discard, out, false); err != nil {
			t.Fatal(err)
		}
	}
	run()
	got := testing.AllocsPerRun(50, run)
	t.Logf("warm level-3 Q1 Debug + JSON: %.0f allocs", got)
	if got > budget {
		t.Errorf("warm level-3 Q1 Debug + JSON allocates %.0f times, budget %d", got, budget)
	}
}
