package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime/metrics"
	"strings"
	"time"

	"kwsdbg/internal/core"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/probecache"
	"kwsdbg/internal/server"
)

// target is one freshly set-up system under test: the dataset, its index and
// lattice, and the HTTP handler with kwsdbgd's deployment defaults.
type target struct {
	sys *core.System
	srv *server.Server
	rec recorder
	// allocs reads the process's allocation counters around each request.
	allocs [2]metrics.Sample
}

// newTarget builds the system the way kwsdbgd does by default: the default
// probe cache and plan cache, serial probing, the default probe path, and a
// text log handler whose output is discarded (formatting is still paid).
func newTarget(level int) (*target, error) {
	eng, err := dblife.Generate(datasetConfig)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	eng.Index()
	sys, err := core.Build(eng, lattice.Options{MaxJoins: level - 1, KeywordSlots: keywordSlots})
	if err != nil {
		return nil, fmt.Errorf("build level-%d lattice: %w", level, err)
	}
	sys.SetProbeCache(probecache.New(probecache.Config{}))
	srv := server.New(sys)
	srv.Workers = 1
	srv.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	t := &target{sys: sys, srv: srv, rec: recorder{header: http.Header{}}}
	t.allocs[0].Name = "/gc/heap/allocs:bytes"
	t.allocs[1].Name = "/gc/heap/allocs:objects"
	return t, nil
}

// setUp builds a target and sends the warm-up operations. It returns the
// target and the CPU time the process spent on both, all threads included
// (the lattice is built in parallel), so the figure does not depend on how
// much of the wall clock the host gave the process.
func setUp(wl workload, warm []op) (*target, time.Duration, error) {
	start := cpuTime(clockProcessCPU)
	t, err := newTarget(wl.level)
	if err != nil {
		return nil, 0, err
	}
	for _, o := range warm {
		req, err := newRequest(o, false)
		if err != nil {
			return nil, 0, err
		}
		t.serve(req)
		if t.rec.status != http.StatusOK {
			return nil, 0, fmt.Errorf("warm-up %s: status %d: %s", o, t.rec.status, t.rec.body.Bytes())
		}
	}
	return t, cpuTime(clockProcessCPU) - start, nil
}

// result is what one request cost: handler wall time, the CPU time of the
// serving thread (the caller's goroutine is locked to it), the CPU time of
// the whole process (handler plus runtime work such as background GC), and
// the allocations made meanwhile.
type result struct {
	dur          time.Duration
	threadCPU    time.Duration
	processCPU   time.Duration
	allocBytes   uint64
	allocObjects uint64
}

// serve sends one request through the handler in-process. The response is
// left in t.rec until the next call.
func (t *target) serve(req *http.Request) result {
	t.rec.reset()
	metrics.Read(t.allocs[:])
	b0, o0 := t.allocs[0].Value.Uint64(), t.allocs[1].Value.Uint64()
	p0, c0 := cpuTime(clockProcessCPU), cpuTime(clockThreadCPU)
	start := time.Now()
	t.srv.ServeHTTP(&t.rec, req)
	d := time.Since(start)
	c1, p1 := cpuTime(clockThreadCPU), cpuTime(clockProcessCPU)
	metrics.Read(t.allocs[:])
	return result{
		dur:          d,
		threadCPU:    c1 - c0,
		processCPU:   p1 - p0,
		allocBytes:   t.allocs[0].Value.Uint64() - b0,
		allocObjects: t.allocs[1].Value.Uint64() - o0,
	}
}

// newRequest builds the HTTP request for an operation; traced debug
// requests ask for the span tree with trace=1.
func newRequest(o op, traced bool) (*http.Request, error) {
	if o.kind == opWrite {
		body, err := json.Marshal(map[string]string{"sql": o.sql})
		if err != nil {
			return nil, fmt.Errorf("encode write: %w", err)
		}
		req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, "/write", bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("build write request: %w", err)
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	}
	target := "/debug?q=" + url.QueryEscape(strings.Join(o.keywords, " "))
	if traced {
		target += "&trace=1"
	}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, target, nil)
	if err != nil {
		return nil, fmt.Errorf("build debug request: %w", err)
	}
	return req, nil
}

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.header)
	r.status = 0
	r.body.Reset()
}

// writeOK reports whether a POST /write response inserted exactly one row.
func writeOK(status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	var resp struct {
		Rows int64 `json:"rows_inserted"`
	}
	return json.Unmarshal(body, &resp) == nil && resp.Rows == 1
}
