package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"kwsdbg/internal/dblife"
)

// tailWrites is how many writes a session of a workload without
// interleaved writes sends after its timed loop and a forced GC, so every
// workload reports write latency against the server state its reads left
// behind.
const tailWrites = 400

// sessions is how many freshly set-up servers an untraced run is split
// over, so one run samples several set-ups.
const sessions = 6

// config is one benchmark invocation.
type config struct {
	wl      workload
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

// report is a run's outcome: the metrics, and how many operations were
// attempted and failed the check.
type report struct {
	attempted, failed int
	// metrics go into the result line; info is printed only.
	metrics, info []metric
	notes         []string
}

type metric struct {
	name  string
	value float64
	unit  string
	// n is the sample count behind a timing; 0 for other metrics.
	n int
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, n: n})
}

func (r *report) print(name string, value float64, unit string, n int) {
	r.info = append(r.info, metric{name: name, value: value, unit: unit, n: n})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// latencies holds per-request handler times in milliseconds: wall clock,
// and CPU time of the serving thread.
type latencies struct{ wall, cpu []float64 }

func (l *latencies) add(res result) {
	l.wall = append(l.wall, msOf(res.dur))
	l.cpu = append(l.cpu, msOf(res.threadCPU))
}

func (l *latencies) merge(o latencies) {
	l.wall = append(l.wall, o.wall...)
	l.cpu = append(l.cpu, o.cpu...)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pass is one measured sequence of operations against one target.
type pass struct {
	ops     []op
	samples []sample
	debug   latencies
	writes  latencies
	// busy and cpu sum the handler wall time and the process CPU time of
	// every operation.
	busy, cpu                time.Duration
	allocBytes, allocObjects uint64
	rt0, rt1                 runtimeCounters
	// heapLive is the live heap after a forced GC at the loop's heapAfter-th
	// operation; 0 if the loop did not measure it.
	heapLive uint64
}

// record appends the outcome of the request just served.
func (p *pass) record(t *target, o op, res result, sp *spool) error {
	p.ops = append(p.ops, o)
	p.busy += res.dur
	p.cpu += res.processCPU
	p.allocBytes += res.allocBytes
	p.allocObjects += res.allocObjects
	s := sample{status: t.rec.status, body: -1}
	if o.kind == opWrite {
		p.writes.add(res)
		s.writeOK = writeOK(t.rec.status, t.rec.body.Bytes())
	} else {
		p.debug.add(res)
		if t.rec.status == http.StatusOK {
			id, err := sp.add(t.rec.body.Bytes())
			if err != nil {
				return err
			}
			s.body = id
		}
	}
	p.samples = append(p.samples, s)
	return nil
}

// measureLoop sends the stream's operations, untraced, for the given time.
// With heapAfter > 0 it measures the live heap after that many operations.
// With a yardstick clock, it runs yardstick rounds between requests.
func measureLoop(t *target, st *stream, d time.Duration, sp *spool, heapAfter int, rc *refClock) (*pass, error) {
	p := &pass{rt0: readRuntime()}
	for start := time.Now(); time.Since(start) < d; {
		o := st.next()
		req, err := newRequest(o, false)
		if err != nil {
			return nil, err
		}
		res := t.serve(req)
		if err := p.record(t, o, res, sp); err != nil {
			return nil, err
		}
		rc.after(res.threadCPU)
		if len(p.ops) == heapAfter {
			runtime.GC()
			p.heapLive = readRuntime().heapLiveB
		}
	}
	p.rt1 = readRuntime()
	return p, nil
}

// sendWrites sends n more writes from the stream and returns their
// latencies and how many failed. With a tracer, each gets a span.
func sendWrites(t *target, st *stream, n int, tr *tracer) (latencies, int, error) {
	var l latencies
	failed := 0
	for i := 0; i < n; i++ {
		o := st.write()
		req, err := newRequest(o, false)
		if err != nil {
			return l, 0, err
		}
		start := time.Now()
		res := t.serve(req)
		if tr != nil {
			tr.span(tr.nextTrace(), 0, "server.write", start, res.dur)
		}
		l.add(res)
		if !writeOK(t.rec.status, t.rec.body.Bytes()) {
			failed++
		}
	}
	return l, failed, nil
}

// run executes one benchmark invocation.
func run(cfg config) (*report, error) {
	// The measured requests run on this goroutine; pinning it to one OS
	// thread makes that thread's CPU clock the requests' CPU time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if cpuTime(clockThreadCPU) == 0 {
		return nil, fmt.Errorf("no per-thread CPU clock on this system")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("output directory: %w", err)
	}
	eng, err := dblife.Generate(datasetConfig)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	ds, err := describeDataset(eng)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.note("workload %s: seed %d, nproc %d, GOMAXPROCS %d, %s", cfg.wl.name, cfg.seed,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rep.note("dataset: DBLife scale %g seed %d, %d rows, vocabulary %d tokens",
		datasetConfig.Scale, datasetConfig.Seed, ds.rows, len(ds.vocab))
	if cfg.trace {
		st, warm := openStream(cfg.wl, cfg.seed, ds)
		err = runTraced(cfg, st, warm, rep)
	} else {
		err = runPlain(cfg, ds, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// openStream builds the stream for a seed and draws its warm-up operations.
func openStream(wl workload, seed int64, ds *dataset) (*stream, []op) {
	st := newStream(wl, seed, ds)
	warm := make([]op, wl.warmup)
	for i := range warm {
		warm[i] = st.next()
	}
	return st, warm
}

// sessionSeed is the stream seed of an untraced run's i-th session. Each
// session draws its own stream, so what a session sends does not depend on
// how many operations earlier sessions got through: a stream that ran on
// for the whole run would, on distinct-cold-l4, run short of unused
// keyword pairs sooner on a faster host and send more three-keyword
// queries.
func sessionSeed(seed int64, i int) int64 { return seed*sessions + int64(i) }

// session is one freshly set-up server and what was measured on it.
type session struct {
	// heapBase is the live heap before the server was set up.
	heapBase uint64
	setup    time.Duration
	p        *pass
	sp       *spool
	// writes holds the interleaved writes, or else the tail writes.
	writes latencies
	// clock holds the yardstick rounds run between the session's requests.
	clock *refClock
}

// newSession sets a server up, sends it the warm-up operations untimed, then
// the stream's operations for d.
func newSession(cfg config, st *stream, warm []op, d time.Duration, ys *yardstick, rep *report) (*session, error) {
	runtime.GC()
	base := readRuntime().heapLiveB
	t, setup, err := setUp(cfg.wl, warm)
	if err != nil {
		return nil, err
	}
	s := &session{heapBase: base, setup: setup, clock: newRefClock(ys)}
	if s.sp, err = newSpool(cfg.outDir); err != nil {
		return nil, err
	}
	if s.p, err = measureLoop(t, st, d, s.sp, cfg.wl.heapAfter, s.clock); err != nil {
		return nil, err
	}
	if s.p.heapLive == 0 {
		runtime.GC()
		s.p.heapLive = readRuntime().heapLiveB
		rep.note("a session sent %d operations, fewer than the %d its heap is measured after; measured at its end",
			len(s.p.ops), cfg.wl.heapAfter)
	}
	s.writes = s.p.writes
	if len(s.writes.cpu) == 0 {
		// Start the tail writes from a collected heap, so their cost does
		// not depend on where the loop left the GC cycle.
		runtime.GC()
		var failed int
		if s.writes, failed, err = sendWrites(t, st, tailWrites, nil); err != nil {
			return nil, err
		}
		rep.attempted += tailWrites
		rep.failed += failed
	}
	return s, nil
}

// runPlain is the untraced run that yields the end-to-end metrics. The time
// budget is split over the sessions, each on a freshly set-up server with
// a stream of its own. Each session's CPU times are scaled by its yardstick
// factor, then latencies are pooled over the sessions; set-up time and live
// heap are the medians of the per-session values. The live heap is the
// session's own: what the server holds, less the live heap before its
// set-up, which holds earlier sessions' records. Responses are checked
// after every session has been measured, so no reference engine shares the
// heap with a measured server.
func runPlain(cfg config, ds *dataset, rep *report) error {
	ys := newYardstick()
	per := time.Duration(cfg.seconds / sessions * float64(time.Second))
	var done []*session
	for i := 0; i < sessions; i++ {
		st, warm := openStream(cfg.wl, sessionSeed(cfg.seed, i), ds)
		s, err := newSession(cfg, st, warm, per, ys, rep)
		if err != nil {
			return err
		}
		done = append(done, s)
	}
	var setupS, heapMB, factors, rounds []float64
	var debug, writes latencies
	var debugScaled, writesScaled []float64
	// queries names the query of each debugScaled sample.
	var queries []string
	var busy, cpu time.Duration
	var cpuScaled float64
	var allocBytes uint64
	ops := 0
	for _, s := range done {
		failed, err := check(cfg.wl, s.p.ops, s.sp, s.p)
		if err != nil {
			return err
		}
		rep.attempted += len(s.p.ops)
		rep.failed += failed
		f := s.clock.factor()
		factors = append(factors, f)
		rounds = append(rounds, s.clock.times...)
		setupS = append(setupS, s.setup.Seconds()*f)
		heapMB = append(heapMB, (float64(s.p.heapLive)-float64(s.heapBase))/(1<<20))
		debug.merge(s.p.debug)
		writes.merge(s.writes)
		debugScaled = append(debugScaled, scaled(s.p.debug.cpu, f)...)
		for _, o := range s.p.ops {
			if o.kind == opDebug {
				queries = append(queries, o.String())
			}
		}
		writesScaled = append(writesScaled, scaled(s.writes.cpu, f)...)
		busy += s.p.busy
		cpu += s.p.cpu
		cpuScaled += s.p.cpu.Seconds() * f
		allocBytes += s.p.allocBytes
		ops += len(s.p.ops)
	}
	debugs := len(debug.cpu)
	rep.add("setup_s", median(setupS), "s", len(setupS))
	rep.add("debug_p50_ms", typicalLatency(cfg.wl, queries, debugScaled), "ms", debugs)
	rep.add("debug_p99_ms", quantile(debugScaled, 0.99), "ms", debugs)
	rep.add("debugs_per_s", float64(debugs)/cpuScaled, "1/s", debugs)
	rep.add("write_p50_ms", median(writesScaled), "ms", len(writesScaled))
	rep.add("alloc_kb_per_op", float64(allocBytes)/1024/float64(ops), "KB", ops)
	rep.add("heap_live_mb", median(heapMB), "MB", len(heapMB))
	// Printed only: the yardstick's readings, the median of all requests,
	// and the unscaled figures, CPU time as measured and wall clock, which
	// also counts time the host did not run the process and time the
	// handler waited on the runtime.
	rep.print("yardstick.round_ms", median(rounds), "ms", len(rounds))
	rep.print("yardstick.factor", median(factors), "ratio", len(factors))
	rep.print("pooled.debug_p50_ms", median(debugScaled), "ms", debugs)
	rep.print("cpu.debug_p50_ms", typicalLatency(cfg.wl, queries, debug.cpu), "ms", debugs)
	rep.print("cpu.debug_p99_ms", quantile(debug.cpu, 0.99), "ms", debugs)
	rep.print("cpu.debugs_per_s", float64(debugs)/cpu.Seconds(), "1/s", debugs)
	rep.print("cpu.write_p50_ms", median(writes.cpu), "ms", len(writes.cpu))
	rep.print("wall.debug_p50_ms", typicalLatency(cfg.wl, queries, debug.wall), "ms", debugs)
	rep.print("wall.debug_p99_ms", quantile(debug.wall, 0.99), "ms", debugs)
	rep.print("wall.debugs_per_s", float64(debugs)/busy.Seconds(), "1/s", debugs)
	rep.print("wall.write_p50_ms", median(writes.wall), "ms", len(writes.wall))
	rep.print("failed_frac", float64(rep.failed)/float64(rep.attempted), "ratio", rep.attempted)
	return nil
}

// check computes the reference for a pass's operations and counts the
// samples that disagree with it.
func check(wl workload, ops []op, sp *spool, passes ...*pass) (int, error) {
	want, err := reference(wl.level, ops, runtime.GOMAXPROCS(0))
	if err != nil {
		return 0, err
	}
	got, err := sp.digests()
	if err != nil {
		return 0, err
	}
	failed := 0
	for _, p := range passes {
		failed += countFailures(p.ops, p.samples, got, want)
	}
	return failed, nil
}
