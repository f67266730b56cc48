package main

import (
	"math"
	"runtime/metrics"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// typicalLatency is the gated debug_p50_ms of a workload: the median of
// all requests, or, on a workload that repeats a fixed set of queries, the
// geometric mean over the queries of each one's median. Round-robin over
// the ten Table 2 queries puts the median of all requests exactly between
// the five fastest and the five slowest, where few requests fall, so it
// jumps between them as the host's load shifts the queries' costs
// unevenly; each query's own median lies where its requests are dense.
// keys names each latency's query.
func typicalLatency(wl workload, keys []string, ms []float64) float64 {
	if !wl.repeats {
		return median(ms)
	}
	byQuery := map[string][]float64{}
	for i, k := range keys {
		byQuery[k] = append(byQuery[k], ms[i])
	}
	queries := make([]string, 0, len(byQuery))
	for k := range byQuery {
		queries = append(queries, k)
	}
	sort.Strings(queries)
	logSum := 0.0
	for _, k := range queries {
		logSum += math.Log(median(byQuery[k]))
	}
	return math.Exp(logSum / float64(len(queries)))
}

// scaled returns xs multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeCounters are the process-wide runtime/metrics counters a pass
// reports as deltas.
type runtimeCounters struct {
	gcCycles  uint64
	gcCPU     float64
	totalCPU  float64
	heapLiveB uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return runtimeCounters{
		gcCycles:  s[0].Value.Uint64(),
		gcCPU:     s[1].Value.Float64(),
		totalCPU:  s[2].Value.Float64(),
		heapLiveB: s[3].Value.Uint64(),
	}
}
