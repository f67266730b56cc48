// Command e2ebench is the end-to-end benchmark of the keyword-search
// debugger: it drives whole debug requests (keywords in, report bytes out)
// and writes through the HTTP handler in-process, one client in a closed
// loop, and checks every response against a reference computed afterwards.
//
//	bash e2ebench/run.sh --workload table2-warm-l5 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, whose timings are CPU
// time stated at one host speed by the yardstick (yardstick.go); with
// --trace 1 it sends the same request sequence once untraced and once with
// spans around each layer, and reports the per-layer metrics and the
// tracing overhead. Human readable lines come first; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

func main() {
	name := flag.String("workload", "", "workload: table2-warm-l5 | distinct-cold-l4 | table2-writes-l5")
	seed := flag.Int64("seed", 1, "workload seed: drives the generated query and write stream")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	outDir := flag.String("out", ".bench_build/e2ebench/out", "directory for the response spool and span files")
	flag.Parse()

	wl, err := findWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	rep, err := run(config{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := rep.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, m := range append(rep.metrics, rep.info...) {
		if m.n > 0 {
			fmt.Printf("%-36s %14.6g %-6s (n=%d)\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("%-36s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	fmt.Println(line)
}

// json renders the result line. A metric that could not be measured (no
// samples) makes the run an error rather than a line with a made-up value.
func (r *report) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s has no value", m.name)
		}
		ms[m.name] = value{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	return string(b), err
}
