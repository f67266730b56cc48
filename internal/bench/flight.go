package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"kwsdbg/internal/core"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/obs/flight"
)

// FlightPoint is one worker count's end-to-end Debug cost with the flight
// recorder detached versus attached (ring recording, no ledger capture — the
// always-on server configuration). Costs are wall nanoseconds per Debug call,
// each side's fastest sweep out of many interleaved off/on pairs.
type FlightPoint struct {
	Workers int `json:"workers"`
	// OffNsPerOp / OnNsPerOp are ns per Debug call without and with a
	// recording Log attached.
	OffNsPerOp float64 `json:"off_ns_per_op"`
	OnNsPerOp  float64 `json:"on_ns_per_op"`
	// Overhead is OnNsPerOp/OffNsPerOp - 1: the recorder's relative cost on
	// the interference-free fast path. The acceptance bar is 5%; see
	// TestFlightOverheadBudget.
	Overhead float64 `json:"overhead"`
	// EventsPerOp is how many flight events one Debug call emits.
	EventsPerOp float64 `json:"events_per_op"`
}

// FlightReport is the machine-readable artifact behind BENCH_flight.json.
type FlightReport struct {
	Level           int    `json:"level"`
	Strategy        string `json:"strategy"`
	Rounds          int    `json:"rounds"`
	QueriesPerRound int    `json:"queries_per_round"`
	RingSlots       int    `json:"ring_slots"`
	Parallelism
	Points []FlightPoint `json:"points"`
}

// FlightSweep measures the recorder's end-to-end overhead across worker
// counts. The verdict cache is bypassed so every probe runs its full
// lifecycle — admission, plan lookup, SQL, verdict — which is the event-dense
// worst case for the recorder; a cache-warm run emits fewer events and costs
// less. RE maximizes probes per op, same as the other sweeps.
func FlightSweep(env *Env, level int, workers []int, rounds int) (*Table, *FlightReport, error) {
	sys, err := env.System(level)
	if err != nil {
		return nil, nil, err
	}
	queries := dblife.Workload()
	rec := flight.NewRecorder(flight.DefaultRingSize)
	rep := &FlightReport{
		Level:           level,
		Strategy:        core.RE.String(),
		Rounds:          rounds,
		QueriesPerRound: len(queries),
		RingSlots:       flight.DefaultRingSize,
		Parallelism:     CurrentParallelism(env.Procs),
	}

	// One timed sweep over the workload, a few milliseconds of work.
	// record=true attaches a ring-recording Log to every Debug call and
	// closes it after, exactly as the server does per request.
	sweep := func(w int, record bool) (elapsed time.Duration, events int, err error) {
		start := time.Now()
		for _, q := range queries {
			ctx := context.Background()
			var fl *flight.Log
			if record {
				fl = flight.NewLog(rec, "bench", false)
				ctx = flight.NewContext(ctx, fl)
			}
			_, err := sys.DebugContext(ctx, q.Keywords, core.Options{
				Strategy: core.RE, Workers: w, BypassCache: true,
			})
			if err != nil {
				return 0, 0, fmt.Errorf("bench: flight sweep %s workers=%d: %w", q.ID, w, err)
			}
			events += fl.Count()
			fl.Close()
		}
		return time.Since(start), events, nil
	}

	// Untimed warmup for the lazily built inverted index.
	if _, _, err := sweep(workers[0], false); err != nil {
		return nil, nil, err
	}

	// Each worker count runs many short off/on sweep pairs — alternating
	// which side of the pair goes first — and each side keeps its fastest
	// sweep. Interference (GC cycles, scheduler preemption, another tenant on
	// the host) only ever slows a sweep down, so the minimum is each side's
	// clean cost; and because the sweeps interleave, both minima are sampled
	// from the same fully-warm epoch of the process, which is what the
	// min-of-rounds estimators of the other sweeps cannot guarantee at this
	// signal size (the recorder costs ~1% of an op — order bias alone would
	// swamp it).
	// Deep minima are rare, so the floor needs many samples: at ~175 pairs
	// the two sides' minima still sit a few percent apart on pure noise,
	// which would swamp the ~1-2% signal; at ~700 they agree to well under a
	// percent. A sweep is under a millisecond, so this is still seconds.
	pairsPerRound := 100
	for _, w := range workers {
		pt := FlightPoint{Workers: w}
		offBest, onBest := math.Inf(1), math.Inf(1)
		var ops, events int
		for i := 0; i < rounds*pairsPerRound; i++ {
			for _, record := range [2]bool{i%2 == 0, i%2 != 0} {
				d, ev, err := sweep(w, record)
				if err != nil {
					return nil, nil, err
				}
				per := float64(d.Nanoseconds()) / float64(len(queries))
				if record {
					onBest = math.Min(onBest, per)
					ops += len(queries)
					events += ev
				} else {
					offBest = math.Min(offBest, per)
				}
			}
		}
		pt.OffNsPerOp, pt.OnNsPerOp = offBest, onBest
		pt.Overhead = onBest/offBest - 1
		pt.EventsPerOp = float64(events) / float64(ops)
		rep.Points = append(rep.Points, pt)
	}

	t := &Table{
		ID:    "flight",
		Title: fmt.Sprintf("flight recorder overhead at level %d (%s, %d rounds x %d queries)", level, rep.Strategy, rounds, len(queries)),
		Columns: []string{"workers", "off_ns_per_op", "on_ns_per_op", "overhead",
			"events_per_op"},
		Notes: fmt.Sprintf("end-to-end Debug ns/op, verdict cache bypassed (event-dense worst case); on = ring recording without ledger capture, ring %d slots; GOMAXPROCS=%d NumCPU=%d",
			flight.DefaultRingSize, rep.GOMAXPROCS, rep.NumCPU),
	}
	for _, p := range rep.Points {
		t.Rows = append(t.Rows, []string{
			itoa(p.Workers),
			fmt.Sprintf("%.0f", p.OffNsPerOp),
			fmt.Sprintf("%.0f", p.OnNsPerOp),
			fmt.Sprintf("%+.1f%%", 100*p.Overhead),
			fmt.Sprintf("%.1f", p.EventsPerOp),
		})
	}
	return t, rep, nil
}
