package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed region of the traced run. Spans of one operation share
// a trace ID; parent 0 marks a root. Spans the benchmark times itself carry
// a start offset from the beginning of the traced pass; spans read from the
// server's ?trace=1 response (debug, phase12, phase3) carry only a duration
// and start_ns -1.
type span struct {
	Trace   int    `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	traces int
}

func (tr *tracer) nextTrace() int {
	tr.traces++
	return tr.traces
}

// span records a span and returns its ID. A zero start marks a span whose
// start is unknown.
func (tr *tracer) span(trace, parent int, name string, start time.Time, d time.Duration) int {
	s := span{Trace: trace, ID: len(tr.spans) + 1, Parent: parent, Name: name, StartNS: -1, DurNS: int64(d)}
	if !start.IsZero() {
		s.StartNS = int64(start.Sub(tr.t0))
	}
	tr.spans = append(tr.spans, s)
	return s.ID
}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// tracedBody is the part of a ?trace=1 /debug response the traced run reads.
type tracedBody struct {
	Stats struct {
		PrunedNodes int     `json:"pruned_nodes"`
		MTNs        int     `json:"mtns"`
		SQLExecuted int     `json:"sql_executed"`
		Inferred    int     `json:"inferred"`
		CacheHits   int     `json:"cache_hits"`
		SQLMillis   float64 `json:"sql_ms"`
	} `json:"stats"`
	Trace *traceSpan `json:"trace"`
}

type traceSpan struct {
	Name       string         `json:"name"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs"`
	Children   []*traceSpan   `json:"children"`
}

func (s *traceSpan) child(name string) *traceSpan {
	if s == nil {
		return nil
	}
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func (s *traceSpan) ms() float64 {
	if s == nil {
		return 0
	}
	return s.DurationMS
}

func (s *traceSpan) attrMS(key string) float64 {
	if s == nil {
		return 0
	}
	v, _ := s.Attrs[key].(float64)
	return v
}

// layers collects per-request layer measurements of the traced pass.
type layers struct {
	series map[string][]float64
}

func (l *layers) add(name string, v float64) {
	if l.series == nil {
		l.series = make(map[string][]float64)
	}
	l.series[name] = append(l.series[name], v)
}

// last returns the most recent value of a series.
func (l *layers) last(name string) float64 {
	s := l.series[name]
	return s[len(s)-1]
}

// tracedOp sends one operation with the benchmark's spans around the calls
// into each layer: the engine's index refresh, keyword binding in the
// inverted index, phases 1-2 through System.Analyze, and the HTTP handler,
// whose response contributes the program's own debug/phase12/phase3 spans.
func tracedOp(t *target, o op, tr *tracer, l *layers, p *pass, sp *spool) error {
	trace := tr.nextTrace()
	if o.kind == opWrite {
		req, err := newRequest(o, true)
		if err != nil {
			return err
		}
		start := time.Now()
		res := t.serve(req)
		tr.span(trace, 0, "server.write", start, res.dur)
		l.add("server.write_ms", msOf(res.dur))
		return p.record(t, o, res, sp)
	}

	start := time.Now()
	ix := t.sys.Engine().Index()
	d := time.Since(start)
	tr.span(trace, 0, "engine.index", start, d)
	l.add("engine.index_ms", msOf(d))

	start = time.Now()
	for _, kw := range o.keywords {
		ix.Tables(kw)
	}
	d = time.Since(start)
	tr.span(trace, 0, "invidx.bind", start, d)
	l.add("invidx.bind_ms", msOf(d))

	start = time.Now()
	st, err := t.sys.Analyze(o.keywords)
	d = time.Since(start)
	if err != nil {
		return fmt.Errorf("analyze %s: %w", o, err)
	}
	tr.span(trace, 0, "core.analyze", start, d)
	sublattice := msOf(d - st.MapTime - st.PruneTime - st.MTNTime)
	l.add("core.sublattice_ms", sublattice)
	l.add("core.sub_nodes", float64(st.SubNodes))

	req, err := newRequest(o, true)
	if err != nil {
		return err
	}
	start = time.Now()
	res := t.serve(req)
	reqID := tr.span(trace, 0, "server.request", start, res.dur)
	if err := p.record(t, o, res, sp); err != nil {
		return err
	}
	if t.rec.status != http.StatusOK {
		return nil
	}
	var body tracedBody
	if err := json.Unmarshal(t.rec.body.Bytes(), &body); err != nil {
		return fmt.Errorf("traced response for %s: %w", o, err)
	}
	dbg := body.Trace
	ph12, ph3 := dbg.child("phase12"), dbg.child("phase3")
	dbgID := tr.span(trace, reqID, "debug", time.Time{}, time.Duration(dbg.ms()*float64(time.Millisecond)))
	if ph12 != nil {
		tr.span(trace, dbgID, "phase12", time.Time{}, time.Duration(ph12.ms()*float64(time.Millisecond)))
	}
	if ph3 != nil {
		tr.span(trace, dbgID, "phase3", time.Time{}, time.Duration(ph3.ms()*float64(time.Millisecond)))
	}

	// The untraced handler rebuilds a stale index itself; here the
	// engine.index span did it, so both count toward the traced time.
	l.add("trace.request_ms", msOf(res.dur)+l.last("engine.index_ms"))
	l.add("server.handler_ms", msOf(res.dur)-dbg.ms())
	l.add("report.bytes", float64(t.rec.body.Len()))
	l.add("core.debug_ms", dbg.ms())
	l.add("core.map_ms", ph12.attrMS("map_ms"))
	l.add("core.prune_ms", ph12.attrMS("prune_ms"))
	l.add("core.mtn_ms", ph12.attrMS("mtn_ms"))
	l.add("core.traverse_ms", ph3.ms())
	l.add("core.probe_sql_ms", body.Stats.SQLMillis)
	l.add("core.assemble_ms", dbg.ms()-ph12.ms()-sublattice-ph3.ms())
	l.add("core.pruned_nodes", float64(body.Stats.PrunedNodes))
	l.add("core.mtns", float64(body.Stats.MTNs))
	l.add("core.probes", float64(body.Stats.SQLExecuted))
	l.add("core.inferred", float64(body.Stats.Inferred))
	l.add("probecache.hits", float64(body.Stats.CacheHits))
	return nil
}

// shareOf lists the per-request timings reported as a share of core.debug_ms.
var shareOf = []string{
	"server.handler_ms", "engine.index_ms", "invidx.bind_ms",
	"core.map_ms", "core.prune_ms", "core.mtn_ms", "core.traverse_ms",
	"core.probe_sql_ms", "core.sublattice_ms", "core.assemble_ms",
}

// runTraced yields the per-layer metrics: an untraced pass for half the
// time budget, then, on a freshly set-up server, the same operations with
// spans around each layer. Both passes are checked against one reference.
func runTraced(cfg config, st *stream, warm []op, rep *report) error {
	sp, err := newSpool(cfg.outDir)
	if err != nil {
		return err
	}
	runtime.GC()
	t, _, err := setUp(cfg.wl, warm)
	if err != nil {
		return err
	}
	plain, err := measureLoop(t, st, time.Duration(cfg.seconds/2*float64(time.Second)), sp, 0, nil)
	if err != nil {
		return err
	}
	t = nil
	runtime.GC()
	if t, _, err = setUp(cfg.wl, warm); err != nil {
		return err
	}
	tr := &tracer{t0: time.Now()}
	var l layers
	traced := &pass{}
	plan0, cache0 := t.sys.PreparedCache().Stats(), t.sys.ProbeCache().Snapshot()
	for _, o := range plain.ops {
		if err := tracedOp(t, o, tr, &l, traced, sp); err != nil {
			return err
		}
	}
	plan1, cache1 := t.sys.PreparedCache().Stats(), t.sys.ProbeCache().Snapshot()
	tailFailed := 0
	if len(l.series["server.write_ms"]) == 0 {
		var w latencies
		if w, tailFailed, err = sendWrites(t, st, tailWrites, tr); err != nil {
			return err
		}
		l.series["server.write_ms"] = w.wall
		rep.attempted += tailWrites
	}
	t = nil
	failed, err := check(cfg.wl, plain.ops, sp, plain, traced)
	if err != nil {
		return err
	}
	rep.attempted += len(plain.ops) + len(traced.ops)
	rep.failed = failed + tailFailed
	spans := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.wl.name, cfg.seed))
	if err := tr.write(spans); err != nil {
		return err
	}
	rep.note("spans: %d written to %s", len(tr.spans), spans)

	debugs := len(l.series["core.debug_ms"])
	med := func(name string) float64 { return median(l.series[name]) }
	for _, name := range []string{"server.handler_ms", "server.write_ms"} {
		rep.add(name, med(name), "ms", len(l.series[name]))
	}
	rep.add("report.bytes", med("report.bytes"), "bytes", debugs)
	rep.add("engine.index_ms", med("engine.index_ms"), "ms", debugs)
	rep.add("invidx.bind_ms", med("invidx.bind_ms"), "ms", debugs)
	lookups := float64(plan1.Hits + plan1.Misses - plan0.Hits - plan0.Misses)
	rep.add("engine.plan_hit_ratio", ratio(float64(plan1.Hits-plan0.Hits), lookups), "ratio", 0)
	rep.add("engine.plan_lookups", lookups, "count", 0)
	rep.add("engine.plan_evictions", float64(plan1.Evictions-plan0.Evictions), "count", 0)
	for _, name := range []string{"core.debug_ms", "core.map_ms", "core.prune_ms", "core.mtn_ms",
		"core.traverse_ms", "core.probe_sql_ms", "core.sublattice_ms", "core.assemble_ms"} {
		rep.add(name, med(name), "ms", debugs)
	}
	debugTotal := sum(l.series["core.debug_ms"])
	for _, name := range shareOf {
		rep.add(name+"_share", ratio(sum(l.series[name]), debugTotal), "ratio", debugs)
	}
	for _, name := range []string{"core.pruned_nodes", "core.mtns", "core.sub_nodes", "core.probes", "core.inferred"} {
		rep.add(name, med(name), "count", debugs)
	}
	probes := sum(l.series["core.probes"])
	ops := float64(len(traced.ops))
	rep.add("probecache.hit_ratio", ratio(sum(l.series["probecache.hits"]), probes), "ratio", 0)
	rep.add("probecache.sql_executed_per_req", ratio(probes, float64(debugs)), "count", 0)
	rep.add("probecache.entries", float64(cache1.Entries), "count", 0)
	rep.add("probecache.evictions_per_op", float64(cache1.Evictions-cache0.Evictions)/ops, "count", 0)
	rep.add("probecache.suspects_per_op", float64(cache1.Suspects-cache0.Suspects)/ops, "count", 0)
	rep.add("probecache.repairs_per_op", float64(cache1.Repairs-cache0.Repairs)/ops, "count", 0)

	// Runtime counters come from the untraced pass, so the benchmark's own
	// span bookkeeping does not inflate them.
	plainOps := float64(len(plain.ops))
	gcCPU := plain.rt1.gcCPU - plain.rt0.gcCPU
	totalCPU := plain.rt1.totalCPU - plain.rt0.totalCPU
	rep.add("runtime.gc_cycles_per_op", float64(plain.rt1.gcCycles-plain.rt0.gcCycles)/plainOps, "count", 0)
	rep.add("runtime.gc_cpu_share", ratio(gcCPU, totalCPU), "ratio", 0)
	rep.add("runtime.alloc_objects_per_op", float64(plain.allocObjects)/plainOps, "count", len(plain.ops))

	var wall, offCPU float64
	for i, w := range plain.debug.wall {
		wall += w
		offCPU += w - plain.debug.cpu[i]
	}
	rep.add("runtime.offcpu_share", ratio(offCPU, wall), "ratio", len(plain.debug.wall))
	rep.add("wall.debug_p99_ms", quantile(plain.debug.wall, 0.99), "ms", len(plain.debug.wall))
	rep.add("wall.debugs_per_s", float64(len(plain.debug.wall))/plain.busy.Seconds(), "1/s", len(plain.debug.wall))

	untracedP50, tracedP50 := median(plain.debug.wall), med("trace.request_ms")
	rep.add("trace.untraced_p50_ms", untracedP50, "ms", len(plain.debug.wall))
	rep.add("trace.traced_p50_ms", tracedP50, "ms", debugs)
	rep.add("trace.overhead_ms", tracedP50-untracedP50, "ms", debugs)
	return nil
}
