package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// The host this benchmark is tuned on shares its cores and caches with
// other machines, and its speed drifts by 10-40% over minutes as their load
// changes. The drift moves the program's CPU time too, so run-to-run spreads
// of the raw timings can exceed any usable bound. The yardstick measures
// the host's speed while a session runs: a fixed workload of the
// benchmark's own, run between requests, made of the operations the
// program's hot paths are built from (lookups in a string-keyed map and a
// sort of strings). A session's timings are scaled by refNominal over the
// median time of its yardstick rounds, raised to refExponent, which states
// them at one fixed host speed. The yardstick calls no program code, so a
// change to the program moves the scaled timings as it moves the raw ones.

// refNominal is a yardstick round's median thread CPU time on the tuning
// host in a quiet spell; scaled timings are what the host would have
// measured at that speed.
const refNominal = 1500 * time.Microsecond

// refExponent is how strongly the program's CPU time follows the
// yardstick's: when a yardstick round takes x% longer, a request takes about
// 1.5x% longer. It is the least-squares slope of log request time on log
// yardstick time over the sessions of a set of runs (1.3 for the median on
// distinct-cold-l4, 1.9 on table2-warm-l5, 1.15-1.5 for throughput); the
// program's larger working set is the likely reason it is more sensitive.
const refExponent = 1.5

// refEvery is how much serving-thread CPU time passes between yardstick
// rounds; a round costs about a twentieth of that.
const refEvery = 30 * time.Millisecond

// refLeadRounds is how many yardstick rounds a session runs before its
// loop, so a short loop still yields a usable median.
const refLeadRounds = 5

const (
	refKeys    = 20_000 // keys in the yardstick's map
	refLookups = 10_000 // lookups per round
	refSorted  = 3_000  // strings sorted per round
)

// yardstick is the yardstick workload's data: about 1 MB on the Go heap,
// built once per run.
type yardstick struct {
	keys    []string
	index   map[string]int
	scratch []string
	sink    int
}

func newYardstick() *yardstick {
	y := &yardstick{index: make(map[string]int, refKeys), scratch: make([]string, refSorted)}
	x := uint64(88172645463325252)
	for i := 0; i < refKeys; i++ {
		// xorshift64: a fixed, seed-independent key set.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := "key" + strconv.FormatUint(x%1_000_000, 16) + "-" + strconv.Itoa(i)
		y.keys = append(y.keys, k)
		y.index[k] = i
	}
	return y
}

// round runs the yardstick workload once and returns the thread CPU time it
// took. The caller's goroutine must be locked to its OS thread.
func (y *yardstick) round() time.Duration {
	start := cpuTime(clockThreadCPU)
	h := 0
	for _, k := range y.keys[:refLookups] {
		h += y.index[k]
	}
	copy(y.scratch, y.keys[refKeys-refSorted:])
	sort.Strings(y.scratch)
	y.sink += h + len(y.scratch[0])
	return cpuTime(clockThreadCPU) - start
}

// refClock runs yardstick rounds between a session's requests, one per
// refEvery of serving-thread CPU time, and keeps their times.
type refClock struct {
	ys    *yardstick
	owed  time.Duration
	times []float64 // ms
}

func newRefClock(ys *yardstick) *refClock {
	c := &refClock{ys: ys}
	for i := 0; i < refLeadRounds; i++ {
		c.times = append(c.times, msOf(ys.round()))
	}
	return c
}

// after accounts for a request's thread CPU time and runs a round when one
// is due. A nil clock does nothing.
func (c *refClock) after(cpu time.Duration) {
	if c == nil {
		return
	}
	if c.owed += cpu; c.owed >= refEvery {
		c.owed = 0
		c.times = append(c.times, msOf(c.ys.round()))
	}
}

// factor is refNominal over the median round time, raised to refExponent:
// the scale that states the session's timings at the nominal host speed.
func (c *refClock) factor() float64 {
	return math.Pow(msOf(refNominal)/median(c.times), refExponent)
}
