package core

import (
	"context"
	"database/sql"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kwsdbg/internal/clock"
	"kwsdbg/internal/engine"
	"kwsdbg/internal/invidx"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/obs/flight"
	"kwsdbg/internal/probecache"
	"kwsdbg/internal/vervec"
)

// Oracle answers aliveness probes for lattice nodes: does the node's
// instantiated query return at least one tuple? Implementations count every
// probe — the number of probes issued is the quantity the paper's evaluation
// compares across traversal strategies — and must be safe for concurrent
// IsAlive calls, because the Phase 3 scheduler probes independent nodes from
// Options.Workers goroutines at once.
type Oracle interface {
	// IsAlive resolves the node's existence query.
	IsAlive(nodeID int) (bool, error)
	// Stats reports the accumulated execution counts and time.
	Stats() OracleStats
}

// OracleStats accumulates the execution effort of one debugging run.
type OracleStats struct {
	// Executed counts the probes the traversal strategy issued — the
	// paper's metric. A probe answered by the cross-request cache still
	// counts here (the strategy spent it), so Executed is identical for
	// any worker count and any cache state.
	Executed int
	// CacheHits counts the subset of Executed answered by the
	// cross-request aliveness cache without touching the engine; the SQL
	// actually run is Executed - CacheHits.
	CacheHits int
	// Compiled counts the probe handles compiled this run: the prepared
	// oracle's misses of the cross-request handle cache. The text oracle,
	// which compiles nothing, always reports zero. Like CacheHits this
	// depends on execution state (what earlier requests warmed), never on
	// the query.
	Compiled int
	// SQLTime is wall time spent executing probe SQL (cache hits cost none).
	SQLTime time.Duration
	// Suspects counts probes whose cached dead verdict a write had
	// downgraded: the lookup could not be trusted and the probe re-ran.
	// Repaired counts the fresh verdicts stored back for them. Both depend
	// on cross-request cache state, never on the query.
	Suspects int
	Repaired int
	// BitsetHits counts probes the bitset engine answered with bitmap
	// semi-joins (no SQL ran); BitsetFallbacks counts probes it declined to
	// the prepared path. Both depend on data shape and warm state, never on
	// the query's answer set.
	BitsetHits      int
	BitsetFallbacks int
}

// nodeFootprint is the version-vector footprint of a node's existence query:
// the distinct relations its join tree reads (suspect trigger set) plus the
// inverted-index tokens of its bound keywords (provenance). Slices are sorted
// so the footprint — which reaches ledgers through cache internals — is
// deterministic regardless of vertex order.
func nodeFootprint(lat *lattice.Lattice, nodeID int, keywords []string) probecache.Footprint {
	node := lat.Node(nodeID)
	tabs := make(map[string]struct{}, len(node.Vertices))
	terms := make(map[string]struct{}, len(node.Vertices))
	for _, v := range node.Vertices {
		tabs[vervec.TableKey(v.Rel)] = struct{}{}
		if v.Copy >= 1 && v.Copy <= len(keywords) {
			for _, tok := range invidx.Tokenize(keywords[v.Copy-1]) {
				terms[vervec.TermKey(tok)] = struct{}{}
			}
		}
	}
	tabList := make([]string, 0, len(tabs))
	for t := range tabs {
		tabList = append(tabList, t)
	}
	sort.Strings(tabList)
	termList := make([]string, 0, len(terms))
	for t := range terms {
		termList = append(termList, t)
	}
	sort.Strings(termList)
	return probecache.Footprint{Tables: tabList, Terms: termList}
}

// batchPreparer is implemented by oracles that benefit from compiling a
// probe batch's handles before the worker pool starts: the scheduler calls
// warmBatch with the nodes of each dispatch, so concurrent workers find
// their handles already resolved instead of racing to compile them.
type batchPreparer interface {
	warmBatch(nodeIDs []int)
}

// preparedOracle is the default probe path: each node's existence query is
// compiled once into an engine.Prepared handle — no SQL text is rendered, no
// parse happens — and the handle is reused for the session through two
// layers: a per-run map (the no-reuse strategies BU/TD probe shared
// descendants once per MTN) and the System's cross-request LRU keyed by
// probe identity, where a handle survives until evicted and revalidates
// itself against the engine's data version on every execution. All indexed
// candidate sets the handles' plans need are shared through the run's
// CandidateCache.
type preparedOracle struct {
	ctx      context.Context
	lat      *lattice.Lattice
	eng      *engine.Engine
	keywords []string

	// cache, when non-nil, is the cross-request aliveness cache; verdicts
	// are looked up by (canonical label, keyword binding) before any SQL
	// and stored after. Its version view is synced with the engine's
	// vector by debugWith, never here.
	cache *probecache.Cache
	// view is this run's version-vector snapshot, taken by debugWith before
	// the first probe. Verdicts are stamped against it so a write this
	// run's probes did not see cannot be vouched for.
	view *vervec.View

	// handles is the System-level cross-request handle cache; entries holds
	// this run's per-node probe state (nodeID -> *probeEntry): the probe
	// identity and, once resolved, the handle, so repeat probes skip even
	// the LRU lock.
	handles *engine.PreparedCache
	entries sync.Map
	// fps memoizes probe footprints (nodeID -> probecache.Footprint).
	fps sync.Map

	// cands shares indexed candidate row sets across this run's probes.
	cands *engine.CandidateCache

	// fl records probe provenance (cache hits/misses, SQL latency); set
	// once via setFlight before the run starts, nil when not recording.
	fl *flight.Log

	executed  atomic.Int64
	cacheHits atomic.Int64
	compiled  atomic.Int64
	sqlNanos  atomic.Int64
	suspects  atomic.Int64
	repaired  atomic.Int64
}

func newPreparedOracle(ctx context.Context, lat *lattice.Lattice, eng *engine.Engine, handles *engine.PreparedCache, keywords []string) *preparedOracle {
	return &preparedOracle{
		ctx: ctx, lat: lat, eng: eng, keywords: keywords,
		handles: handles, cands: engine.NewCandidateCache(),
	}
}

// setFlight attaches the run's flight log to the oracle and to its
// candidate-set cache (the engine's planning layer emits through the cache).
func (o *preparedOracle) setFlight(fl *flight.Log) {
	o.fl = fl
	o.cands.SetFlight(fl)
}

// probeEntry is one node's per-run probe state. key is the node's probe
// identity: canonical label plus keyword binding — the same identity the
// verdict cache uses, because two nodes sharing it have isomorphic existence
// queries with identical outcomes. h is the node's handle once resolved.
type probeEntry struct {
	key string
	h   atomic.Pointer[engine.Prepared]
}

// entry returns the node's probe entry, creating it on first use. warmBatch
// creates the entries while pre-compiling, so the probe itself — which needs
// the key for the cache lookup and for every flight event, and the handle to
// execute — gets one map hit instead of a string build.
func (o *preparedOracle) entry(nodeID int) *probeEntry {
	if v, ok := o.entries.Load(nodeID); ok {
		return v.(*probeEntry)
	}
	node := o.lat.Node(nodeID)
	v, _ := o.entries.LoadOrStore(nodeID, &probeEntry{key: probecache.Key(node.Label, node.CopyMask, o.keywords)})
	return v.(*probeEntry)
}

// probeKey is the node's probe identity; see probeEntry.
func (o *preparedOracle) probeKey(nodeID int) string { return o.entry(nodeID).key }

// footprint memoizes the node's version-vector footprint, mirroring probeKey.
func (o *preparedOracle) footprint(nodeID int) probecache.Footprint {
	if v, ok := o.fps.Load(nodeID); ok {
		return v.(probecache.Footprint)
	}
	fp := nodeFootprint(o.lat, nodeID, o.keywords)
	o.fps.Store(nodeID, fp)
	return fp
}

// handle resolves the node's Prepared handle: per-run map, then the
// cross-request LRU, then compile. Concurrent probes of one node may both
// compile; the duplicate handle is equivalent and the last store wins, so
// correctness never depends on winning the race.
func (o *preparedOracle) handle(nodeID int) (*engine.Prepared, error) {
	return o.handleOf(nodeID, o.entry(nodeID))
}

// handleOf is handle for a node whose entry the caller already holds.
func (o *preparedOracle) handleOf(nodeID int, e *probeEntry) (*engine.Prepared, error) {
	if h := e.h.Load(); h != nil {
		return h, nil
	}
	key := e.key
	if h := o.handles.Get(key); h != nil {
		e.h.Store(h)
		return h, nil
	}
	sel, err := o.lat.Select(o.lat.Node(nodeID), o.keywords, true)
	if err != nil {
		return nil, fmt.Errorf("core: instantiate node %d: %w", nodeID, err)
	}
	h, err := o.eng.Prepare(sel)
	if err != nil {
		return nil, fmt.Errorf("core: prepare node %d: %w", nodeID, err)
	}
	o.compiled.Add(1)
	o.handles.Put(key, h)
	e.h.Store(h)
	return h, nil
}

// warmBatch implements batchPreparer: compiling is cheap (resolve only; the
// plan is lazy), so doing it serially before dispatch keeps the workers'
// handle lookups contention-free.
func (o *preparedOracle) warmBatch(nodeIDs []int) {
	for _, id := range nodeIDs {
		// Errors are deliberately dropped: the probe itself will hit the
		// same error and report it through the scheduler's ordered commit.
		_, _ = o.handle(id)
	}
}

// IsAlive implements Oracle.
//
//kws:hotpath
func (o *preparedOracle) IsAlive(nodeID int) (bool, error) {
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
			// A write touched a footprint table since the dead verdict was
			// proved; re-probe to repair it (an INSERT can only flip
			// dead -> alive, so the alive branch above stays trustworthy).
			suspect = true
			o.suspects.Add(1)
			o.fl.Emit(flight.Suspect, nodeID, key, false, 0, outcome.Cause())
		} else {
			o.fl.Emit(flight.ProbeCacheMiss, nodeID, key, false, 0, outcome.Cause())
		}
	}
	// The timer covers full probe servicing — handle lookup (or compile)
	// plus execution — mirroring the text path, which times render plus
	// execution; SQLTime is therefore comparable across the two paths.
	start := clock.Now()
	h, err := o.handleOf(nodeID, e)
	if err != nil {
		return false, err
	}
	res, err := h.ExecFlight(o.ctx, o.cands, o.fl, nodeID, key)
	if err != nil {
		return false, fmt.Errorf("core: probe node %d: %w", nodeID, err)
	}
	alive := len(res.Rows) > 0
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

// repairCause labels a Repair event: "flipped" when the write the suspect
// feared really did resurrect the query, "confirmed" when the re-probe proved
// the dead verdict still holds.
func repairCause(alive bool) string {
	if alive {
		return "flipped"
	}
	return "confirmed"
}

// Stats implements Oracle.
func (o *preparedOracle) Stats() OracleStats {
	return OracleStats{
		Executed:  int(o.executed.Load()),
		CacheHits: int(o.cacheHits.Load()),
		Compiled:  int(o.compiled.Load()),
		SQLTime:   time.Duration(o.sqlNanos.Load()),
		Suspects:  int(o.suspects.Load()),
		Repaired:  int(o.repaired.Load()),
	}
}

// candStats reports the run's candidate-set cache traffic.
func (o *preparedOracle) candStats() (hits, misses int64) { return o.cands.Stats() }

// sqlOracle is the fallback text path: each node's "SELECT 1 ... LIMIT 1"
// probe is rendered to SQL and run through database/sql, exactly as the
// paper's Java implementation issued probes through JDBC. It exists for any
// backend reachable only through a database/sql driver, and as the reference
// the prepared path is property-tested against. Rendering is recomputed per
// probe — the per-run memo it once carried is gone, since the default path
// no longer renders at all — but the engine's canonical-SQL plan cache still
// spares repeated probes the parse and resolve.
type sqlOracle struct {
	ctx      context.Context
	lat      *lattice.Lattice
	db       *sql.DB
	keywords []string

	// cache is the cross-request aliveness cache, as in preparedOracle;
	// view the run's version-vector snapshot verdicts are stamped against.
	cache *probecache.Cache
	view  *vervec.View

	// fl records probe provenance, as in preparedOracle. Plan and retry
	// events on this path come from the engine via the context instead
	// (database/sql hides the call chain), tagged with node -1.
	fl *flight.Log

	executed  atomic.Int64
	cacheHits atomic.Int64
	sqlNanos  atomic.Int64
	suspects  atomic.Int64
	repaired  atomic.Int64
}

func newSQLOracle(ctx context.Context, lat *lattice.Lattice, db *sql.DB, keywords []string) *sqlOracle {
	return &sqlOracle{ctx: ctx, lat: lat, db: db, keywords: keywords}
}

// IsAlive implements Oracle.
func (o *sqlOracle) IsAlive(nodeID int) (bool, error) {
	var key string
	if o.cache != nil || o.fl != nil {
		node := o.lat.Node(nodeID)
		key = probecache.Key(node.Label, node.CopyMask, o.keywords)
	}
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
	// Rendering is inside the timer: it is part of servicing a text-path
	// probe, and skipping it is precisely what the prepared path is for.
	start := clock.Now()
	query, err := o.lat.SQL(o.lat.Node(nodeID), o.keywords, true)
	if err != nil {
		return false, fmt.Errorf("core: render node %d: %w", nodeID, err)
	}
	rows, err := o.db.QueryContext(o.ctx, query)
	if err != nil {
		return false, fmt.Errorf("core: execute %q: %w", query, err)
	}
	alive := rows.Next()
	closeErr := rows.Close()
	if err := rows.Err(); err != nil {
		return false, err
	}
	if closeErr != nil {
		return false, closeErr
	}
	o.executed.Add(1)
	dur := clock.Since(start)
	o.sqlNanos.Add(int64(dur))
	o.fl.Emit(flight.SQLExec, nodeID, key, alive, dur, "")
	if o.cache != nil {
		o.cache.PutFP(key, alive, nodeFootprint(o.lat, nodeID, o.keywords), o.view)
		if suspect {
			o.repaired.Add(1)
			o.fl.Emit(flight.Repair, nodeID, key, alive, 0, repairCause(alive))
		}
	}
	return alive, nil
}

// Stats implements Oracle.
func (o *sqlOracle) Stats() OracleStats {
	return OracleStats{
		Executed:  int(o.executed.Load()),
		CacheHits: int(o.cacheHits.Load()),
		SQLTime:   time.Duration(o.sqlNanos.Load()),
		Suspects:  int(o.suspects.Load()),
		Repaired:  int(o.repaired.Load()),
	}
}
