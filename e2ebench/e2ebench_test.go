package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"kwsdbg/internal/dblife"
)

// benchmarkSpec reads the metric declarations of the repository's
// BENCHMARK.json: name -> unit, for the end-to-end and per-layer lists.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkReport asserts a run reported exactly the declared metrics, each with
// its declared unit, and that no operation failed.
func checkReport(t *testing.T, rep *report, want map[string]string) {
	t.Helper()
	if rep.attempted == 0 {
		t.Fatal("no operations attempted")
	}
	if rep.failed != 0 {
		t.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
	}
	got := map[string]string{}
	for _, m := range rep.metrics {
		got[m.name] = m.unit
	}
	for name, unit := range want {
		if u, ok := got[name]; !ok {
			t.Errorf("metric %s not reported", name)
		} else if u != unit {
			t.Errorf("metric %s reported in %s, declared in %s", name, u, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s reported but not declared", name)
		}
	}
	if _, err := rep.json(); err != nil {
		t.Error(err)
	}
}

func TestShortRunReportsEveryEndToEndMetric(t *testing.T) {
	endToEnd, _ := benchmarkSpec(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			rep, err := run(config{wl: wl, seed: 1, seconds: 0.3, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, endToEnd)
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	_, perLayer := benchmarkSpec(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			dir := t.TempDir()
			rep, err := run(config{wl: wl, seed: 1, seconds: 0.3, trace: true, outDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, perLayer)
			spans, err := os.ReadFile(filepath.Join(dir, "spans-"+wl.name+"-seed1.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"engine.index", "invidx.bind", "core.analyze", "server.request", "debug", "phase12", "server.write"} {
				if !strings.Contains(string(spans), `"name":"`+name+`"`) {
					t.Errorf("no %s span written", name)
				}
			}
		})
	}
}

// firstOps renders the first n operations of a workload's stream, followed
// by n writes (the tail writes of workloads without interleaved writes).
func firstOps(t *testing.T, wl workload, seed int64, n int) []string {
	t.Helper()
	eng, err := dblife.Generate(datasetConfig)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := describeDataset(eng)
	if err != nil {
		t.Fatal(err)
	}
	st := newStream(wl, seed, ds)
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, st.next().String())
	}
	for i := 0; i < n; i++ {
		out = append(out, st.write().String())
	}
	return out
}

func TestStreamDependsOnlyOnSeed(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			a, b := firstOps(t, wl, 7, 300), firstOps(t, wl, 7, 300)
			if strings.Join(a, "\n") != strings.Join(b, "\n") {
				t.Error("one seed produced two different streams")
			}
			c := firstOps(t, wl, 8, 300)
			if strings.Join(a[:300], "\n") == strings.Join(c[:300], "\n") {
				t.Error("seeds 7 and 8 produced the same requests")
			}
			if strings.Join(a[300:], "\n") == strings.Join(c[300:], "\n") {
				t.Error("seeds 7 and 8 produced the same writes")
			}
		})
	}
}

func TestDistinctColdNeverRepeatsAQuery(t *testing.T) {
	wl, err := findWorkload("distinct-cold-l4")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, o := range firstOps(t, wl, 1, 5000)[:5000] {
		kws := strings.Fields(strings.TrimPrefix(o, "debug "))
		if len(kws) < 2 || len(kws) > 3 {
			t.Fatalf("%q has %d keywords", o, len(kws))
		}
		sort.Strings(kws)
		key := strings.Join(kws, " ")
		if seen[key] {
			t.Fatalf("%q repeats an earlier keyword set", o)
		}
		seen[key] = true
	}
}

// alter removes one maximal alive sub-query from the first non-answer that
// has one, or else the first answer, and re-encodes the body.
func alter(t *testing.T, body []byte) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	altered := false
	for _, na := range doc["non_answers"].([]any) {
		m := na.(map[string]any)
		if mpans := m["mpans"].([]any); len(mpans) > 0 {
			m["mpans"] = mpans[1:]
			altered = true
			break
		}
	}
	if !altered {
		answers := doc["answers"].([]any)
		if len(answers) == 0 {
			t.Fatal("response has nothing to alter")
		}
		doc["answers"] = answers[1:]
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAlteredResponseCountsAsFailure(t *testing.T) {
	const level = 4
	tg, err := newTarget(level)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := newSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ops []op
	var samples []sample
	for _, q := range dblife.Workload()[:4] {
		o := op{kind: opDebug, keywords: q.Keywords}
		req, err := newRequest(o, false)
		if err != nil {
			t.Fatal(err)
		}
		tg.serve(req)
		if tg.rec.status != http.StatusOK {
			t.Fatalf("%s: status %d", o, tg.rec.status)
		}
		body := append([]byte(nil), tg.rec.body.Bytes()...)
		for _, b := range [][]byte{body, alter(t, body)} {
			id, err := sp.add(b)
			if err != nil {
				t.Fatal(err)
			}
			ops = append(ops, o)
			samples = append(samples, sample{status: http.StatusOK, body: id})
		}
	}
	// A server error and a write that inserted nothing fail regardless of
	// the body.
	ops = append(ops, ops[0], op{kind: opWrite, sql: "INSERT INTO Topic VALUES (9000001, 'x')"})
	samples = append(samples, sample{status: http.StatusInternalServerError, body: samples[0].body}, sample{status: http.StatusOK, body: -1})

	want, err := reference(level, ops, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sp.digests()
	if err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		failed := countFailures(ops[i:i+1], samples[i:i+1], got, want[i:i+1])
		wantFailed := i%2 == 1 || i >= 8
		if (failed == 1) != wantFailed {
			t.Errorf("operation %d (%s): counted %d failures, want failure=%v", i, ops[i], failed, wantFailed)
		}
	}
}

func TestTypicalLatency(t *testing.T) {
	keys := []string{"a", "a", "a", "b", "b", "b"}
	ms := []float64{1, 2, 3, 4, 8, 16}
	cold, _ := findWorkload("distinct-cold-l4")
	if got := typicalLatency(cold, keys, ms); got != 3.5 {
		t.Errorf("distinct-cold-l4: got %g, want the median of all requests, 3.5", got)
	}
	warm, _ := findWorkload("table2-warm-l5")
	if got := typicalLatency(warm, keys, ms); math.Abs(got-4) > 1e-12 {
		t.Errorf("table2-warm-l5: got %g, want the geometric mean of the per-query medians 2 and 8, 4", got)
	}
}

func TestSessionSeedsNeverCollide(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 100; seed++ {
		for i := 0; i < sessions; i++ {
			s := sessionSeed(seed, i)
			if seen[s] {
				t.Fatalf("seed %d session %d reuses stream seed %d", seed, i, s)
			}
			seen[s] = true
		}
	}
}
