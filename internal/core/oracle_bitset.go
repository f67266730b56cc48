package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"kwsdbg/internal/clock"
	"kwsdbg/internal/core/bitprobe"
	"kwsdbg/internal/engine"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/obs/flight"
	"kwsdbg/internal/probecache"
)

// bitsetOracle answers probes with bitmap semi-joins first and falls back to
// the embedded prepared oracle for shapes the bitset engine declines. The
// prepared-SQL path stays the oracle of record: the two are property-tested
// byte-identical, and every fallback runs exactly the prepared IsAlive flow.
//
// Probe-cache interaction is unchanged from the prepared path — same lookup,
// same suspect handling, same PutFP stamping — so the monotone verdict
// repair machinery works identically no matter which engine proves the
// verdict. The bitset engine's own memos carry their own vervec stamps and
// need no per-run synchronization.
type bitsetOracle struct {
	*preparedOracle
	eval *bitprobe.Evaluator

	bitsetHits      atomic.Int64
	bitsetFallbacks atomic.Int64
}

func newBitsetOracle(ctx context.Context, lat *lattice.Lattice, eng *engine.Engine, handles *engine.PreparedCache, keywords []string, eval *bitprobe.Evaluator) *bitsetOracle {
	return &bitsetOracle{
		preparedOracle: newPreparedOracle(ctx, lat, eng, handles, keywords),
		eval:           eval,
	}
}

// warmBatch implements batchPreparer: the bitset analogue warms compiled
// probe plans and candidate bitmaps. Prepared handles are deliberately not
// pre-compiled — most probes never fall back, and a fallback compiles its
// handle on first need exactly like a cold prepared probe.
func (o *bitsetOracle) warmBatch(nodeIDs []int) {
	for _, id := range nodeIDs {
		o.eval.Warm(o.lat.Node(id), o.keywords, o.probeKey(id))
	}
}

// IsAlive implements Oracle.
//
//kws:hotpath
func (o *bitsetOracle) IsAlive(nodeID int) (bool, error) {
	e := o.entry(nodeID)
	key := e.key
	suspect := false
	if o.cache != nil {
		alive, outcome := o.cache.Lookup(key)
		if outcome == probecache.Hit {
			o.executed.Add(1)
			o.cacheHits.Add(1)
			o.fl.Emit(flight.ProbeCacheHit, nodeID, key, alive, 0, "")
			return alive, nil
		}
		if outcome == probecache.Suspect {
			suspect = true
			o.suspects.Add(1)
			o.fl.Emit(flight.Suspect, nodeID, key, false, 0, outcome.Cause())
		} else {
			o.fl.Emit(flight.ProbeCacheMiss, nodeID, key, false, 0, outcome.Cause())
		}
	}
	// The prepared path observes cancellation through the engine; the bitset
	// path never enters the engine, so check here to keep deadline and
	// cancellation behavior equivalent.
	if err := o.ctx.Err(); err != nil {
		return false, fmt.Errorf("core: probe node %d: %w", nodeID, err)
	}
	// One timer spans the whole probe: a declined bitset attempt stays
	// inside the fallback's measured duration, so SQLTime remains "time
	// spent servicing probes" on every path.
	start := clock.Now()
	alive, served, cause := o.eval.Probe(o.lat.Node(nodeID), o.keywords, key)
	if served {
		o.executed.Add(1)
		o.bitsetHits.Add(1)
		dur := clock.Since(start)
		o.sqlNanos.Add(int64(dur))
		o.fl.Emit(flight.BitsetHit, nodeID, key, alive, dur, "")
		if o.cache != nil {
			o.cache.PutFP(key, alive, o.footprint(nodeID), o.view)
			if suspect {
				o.repaired.Add(1)
				o.fl.Emit(flight.Repair, nodeID, key, alive, 0, repairCause(alive))
			}
		}
		return alive, nil
	}
	o.bitsetFallbacks.Add(1)
	o.fl.Emit(flight.BitsetFallback, nodeID, key, false, 0, cause)
	h, err := o.handleOf(nodeID, e)
	if err != nil {
		return false, err
	}
	res, err := h.ExecFlight(o.ctx, o.cands, o.fl, nodeID, key)
	if err != nil {
		return false, fmt.Errorf("core: probe node %d: %w", nodeID, err)
	}
	alive = len(res.Rows) > 0
	o.executed.Add(1)
	dur := clock.Since(start)
	o.sqlNanos.Add(int64(dur))
	o.fl.Emit(flight.SQLExec, nodeID, key, alive, dur, "")
	if o.cache != nil {
		o.cache.PutFP(key, alive, o.footprint(nodeID), o.view)
		if suspect {
			o.repaired.Add(1)
			o.fl.Emit(flight.Repair, nodeID, key, alive, 0, repairCause(alive))
		}
	}
	return alive, nil
}

// Stats implements Oracle.
func (o *bitsetOracle) Stats() OracleStats {
	return OracleStats{
		Executed:        int(o.executed.Load()),
		CacheHits:       int(o.cacheHits.Load()),
		Compiled:        int(o.compiled.Load()),
		SQLTime:         time.Duration(o.sqlNanos.Load()),
		Suspects:        int(o.suspects.Load()),
		Repaired:        int(o.repaired.Load()),
		BitsetHits:      int(o.bitsetHits.Load()),
		BitsetFallbacks: int(o.bitsetFallbacks.Load()),
	}
}
