package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/engine"
	"kwsdbg/internal/invidx"
	"kwsdbg/internal/storage"
)

// The dataset every workload runs on: synthetic DBLife at scale 0.02 with a
// fixed generator seed. The workload seed never changes the data, only the
// request stream sent to it.
var datasetConfig = dblife.Config{Seed: 1, Scale: 0.02}

// keywordSlots is the longest keyword query the lattices serve (Table 2
// queries have at most three keywords).
const keywordSlots = 3

// workload describes one traffic mix.
type workload struct {
	name string
	// level is the lattice depth (maxJoins+1) the server is built with.
	level int
	// warmup is how many leading operations of the stream are sent untimed
	// before measuring.
	warmup int
	// heapAfter is the operation of a session's timed loop after which its
	// live heap is measured. A fixed count, not the loop's end, keeps the
	// figure independent of how many requests the session got through
	// while cross-request caches grow.
	heapAfter int
	// repeats marks a stream that sends a fixed set of queries over and
	// over; its debug_p50_ms is taken per query (see typicalLatency).
	repeats bool
}

// workloads lists the traffic mixes; README.md says why each exists.
var workloads = []workload{
	// Every probe is a verdict-cache hit: time goes to pruning, the
	// sublattice build, output assembly and report rendering.
	{name: "table2-warm-l5", level: 5, warmup: 10, heapAfter: 150, repeats: true},
	// Every request misses the verdict and plan caches, so probe servicing
	// dominates, and cross-request caches grow all run long.
	{name: "distinct-cold-l4", level: 4, warmup: 20, heapAfter: 1500},
	// The warm read path beside writes: inserts, version bumps,
	// suspect-repair and the index rebuild after each INSERT.
	{name: "table2-writes-l5", level: 5, warmup: 10, heapAfter: 150, repeats: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// opKind distinguishes the two request types a stream sends.
type opKind uint8

const (
	opDebug opKind = iota // GET /debug?q=...
	opWrite               // POST /write {"sql": ...}
)

// op is one generated request.
type op struct {
	kind     opKind
	keywords []string // opDebug
	sql      string   // opWrite
	// tokens are the text tokens of the row an opWrite inserts.
	tokens []string
}

func (o op) String() string {
	if o.kind == opWrite {
		return "write " + o.sql
	}
	return "debug " + strings.Join(o.keywords, " ")
}

// writeEvery makes every writeEvery-th operation of table2-writes-l5 a write.
const writeEvery = 5

// stream generates a workload's operations deterministically from its seed.
// The reads of the two Table 2 workloads visit Q1-Q10 in rounds, each in a
// seeded order; distinct-cold-l4 draws keyword sets from the database's
// vocabulary and never repeats one. Writes insert one row into a seeded
// entity table with a fresh id: half carry a Table 2 keyword into a table
// that already contains it, half carry a token the data has never seen.
type stream struct {
	wl  workload
	rng *rand.Rand
	// order is the current round's order of the Table 2 queries.
	order []int
	// vocab is the sorted token vocabulary of the data's text columns.
	vocab []string
	// seen holds every keyword set distinct-cold-l4 has sent.
	seen map[string]bool
	// keywordTables maps each Table 2 keyword to the tables containing it.
	keywordTables map[string][]string
	entities      []*catalog.Relation

	reads, n, writes int
}

// newStream builds the generator. The schema, vocabulary and keyword
// bindings come from a freshly generated copy of the dataset, so the
// stream depends on nothing but the seed.
func newStream(wl workload, seed int64, ds *dataset) *stream {
	return &stream{
		wl:            wl,
		rng:           rand.New(rand.NewSource(seed)),
		order:         make([]int, len(dblife.Workload())),
		vocab:         ds.vocab,
		seen:          make(map[string]bool),
		keywordTables: ds.keywordTables,
		entities:      ds.entities,
	}
}

// next returns the stream's next operation.
func (s *stream) next() op {
	s.n++
	switch {
	case s.wl.name == "distinct-cold-l4":
		return s.distinct()
	case s.wl.name == "table2-writes-l5" && s.n > s.wl.warmup && (s.n-s.wl.warmup)%writeEvery == 0:
		return s.write()
	default:
		// Each round visits Q1-Q10 once, in a fresh seeded order, so on
		// table2-writes-l5 every query is equally likely to follow a write.
		if s.reads%len(s.order) == 0 {
			s.order = s.rng.Perm(len(s.order))
		}
		q := dblife.Workload()[s.order[s.reads%len(s.order)]]
		s.reads++
		return op{kind: opDebug, keywords: q.Keywords}
	}
}

// distinct draws a 2- or 3-keyword set from the vocabulary that no earlier
// operation of this stream used (in any order). Once two-keyword sets grow
// scarce it falls back to three keywords rather than search forever.
func (s *stream) distinct() op {
	k := 2 + s.rng.Intn(keywordSlots-1)
	for attempt := 1; ; attempt++ {
		if attempt%1000 == 0 {
			k = keywordSlots
		}
		kws := make([]string, 0, k)
		for len(kws) < k {
			if kw := s.vocab[s.rng.Intn(len(s.vocab))]; !contains(kws, kw) {
				kws = append(kws, kw)
			}
		}
		sorted := append([]string(nil), kws...)
		sort.Strings(sorted)
		key := strings.Join(sorted, " ")
		if !s.seen[key] {
			s.seen[key] = true
			return op{kind: opDebug, keywords: kws}
		}
	}
}

// write builds the next INSERT.
func (s *stream) write() op {
	s.writes++
	id := 9_000_000 + s.writes
	var rel *catalog.Relation
	var text string
	if s.rng.Intn(2) == 0 {
		kw := table2Keywords[s.rng.Intn(len(table2Keywords))]
		tables := s.keywordTables[kw]
		name := tables[s.rng.Intn(len(tables))]
		for _, e := range s.entities {
			if e.Name == name {
				rel = e
			}
		}
		text = kw + " churn"
	} else {
		rel = s.entities[s.rng.Intn(len(s.entities))]
		text = fmt.Sprintf("churn%dx%d", s.rng.Intn(1_000_000), s.writes)
	}
	return op{kind: opWrite, sql: insertSQL(rel, id, text), tokens: invidx.Tokenize(text)}
}

// insertSQL renders a literal INSERT: the id for every integer column, the
// text for every text column.
func insertSQL(rel *catalog.Relation, id int, text string) string {
	vals := make([]string, len(rel.Columns))
	for i, col := range rel.Columns {
		if col.Type == catalog.Text {
			vals[i] = "'" + text + "'"
		} else {
			vals[i] = fmt.Sprint(id)
		}
	}
	return fmt.Sprintf("INSERT INTO %s VALUES (%s)", rel.Name, strings.Join(vals, ", "))
}

// table2Keywords lists the distinct keywords of Q1-Q10.
var table2Keywords = func() []string {
	seen := map[string]bool{}
	var out []string
	for _, q := range dblife.Workload() {
		for _, kw := range q.Keywords {
			if !seen[kw] {
				seen[kw] = true
				out = append(out, kw)
			}
		}
	}
	return out
}()

// dataset summarises the generated data for stream generation and for the
// run's description.
type dataset struct {
	rows  int
	vocab []string
	// keywordTables maps each Table 2 keyword to the tables containing it.
	keywordTables map[string][]string
	// entities are the relations with a text column, in schema order.
	entities []*catalog.Relation
}

func describeDataset(eng *engine.Engine) (*dataset, error) {
	db := eng.Database()
	ds := &dataset{rows: db.TotalRows(), keywordTables: make(map[string][]string)}
	toks := map[string]bool{}
	for _, rel := range db.Schema().Relations() {
		textCols := rel.TextColumns()
		if len(textCols) == 0 {
			continue
		}
		ds.entities = append(ds.entities, rel)
		tbl, ok := db.Table(rel.Name)
		if !ok {
			return nil, fmt.Errorf("dataset has no table %s", rel.Name)
		}
		tbl.Scan(func(_ storage.RowID, row storage.Row) bool {
			for _, c := range textCols {
				for _, tok := range invidx.Tokenize(row[rel.ColumnIndex(c)].S) {
					toks[tok] = true
				}
			}
			return true
		})
	}
	for tok := range toks {
		ds.vocab = append(ds.vocab, tok)
	}
	sort.Strings(ds.vocab)
	ix := eng.Index()
	for _, kw := range table2Keywords {
		tables := ix.Tables(kw)
		if len(tables) == 0 {
			return nil, fmt.Errorf("Table 2 keyword %q binds no table", kw)
		}
		ds.keywordTables[kw] = tables
	}
	return ds, nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
