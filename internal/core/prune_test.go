package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kwsdbg/internal/dblife"
	"kwsdbg/internal/lattice"
)

// refPrune is the per-node vertex walk that Phase 1b used before the pair
// bitmaps: a node survives when every keyword copy j it uses has
// j <= len(bindings) and the j-th keyword binds to the copy's relation.
func refPrune(lat *lattice.Lattice, bindings []map[string]bool) []int {
	var surviving []int
	for id := 0; id < lat.Len(); id++ {
		ok := true
		for _, v := range lat.Node(id).Vertices {
			if v.Copy == 0 {
				continue
			}
			if v.Copy > len(bindings) || !bindings[v.Copy-1][v.Rel] {
				ok = false
				break
			}
		}
		if ok {
			surviving = append(surviving, id)
		}
	}
	return surviving
}

// refMTNs is Phase 2 over a survivor list: total nodes none of whose
// children is total.
func refMTNs(lat *lattice.Lattice, surviving []int, n int) []int {
	var mtns []int
	for _, id := range surviving {
		node := lat.Node(id)
		if !node.IsTotal(n) {
			continue
		}
		minimal := true
		for _, c := range node.Children {
			if lat.Node(c).IsTotal(n) {
				minimal = false
				break
			}
		}
		if minimal {
			mtns = append(mtns, id)
		}
	}
	return mtns
}

// refBuildSublattice is the map-based construction the bitset closure
// replaced: sub-nodes ordered by (level, label) string compares, and
// desc/asc built as per-node sets.
func refBuildSublattice(lat *lattice.Lattice, mtnIDs []int) *sublattice {
	s := &sublattice{lat: lat, subIdx: make(map[int]int)}
	var stack []int
	push := func(id int) {
		if _, ok := s.subIdx[id]; ok {
			return
		}
		s.subIdx[id] = len(s.nodeID)
		s.nodeID = append(s.nodeID, id)
		stack = append(stack, id)
	}
	for _, id := range mtnIDs {
		push(id)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range lat.Node(id).Children {
			push(c)
		}
	}
	sort.Slice(s.nodeID, func(a, b int) bool {
		na, nb := lat.Node(s.nodeID[a]), lat.Node(s.nodeID[b])
		if na.Level != nb.Level {
			return na.Level < nb.Level
		}
		return na.Label < nb.Label
	})
	for i, id := range s.nodeID {
		s.subIdx[id] = i
	}
	n := len(s.nodeID)
	s.level = make([]int, n)
	s.children = make([][]int32, n)
	s.parents = make([][]int32, n)
	s.desc = make([][]int32, n)
	s.asc = make([][]int32, n)
	for i, id := range s.nodeID {
		node := lat.Node(id)
		s.level[i] = node.Level
		if node.Level > s.maxLevel {
			s.maxLevel = node.Level
		}
		for _, c := range node.Children {
			s.children[i] = append(s.children[i], int32(s.subIdx[c]))
		}
		for _, p := range node.Parents {
			if pi, ok := s.subIdx[p]; ok {
				s.parents[i] = append(s.parents[i], int32(pi))
			}
		}
	}
	keys := func(set map[int32]bool) []int32 {
		if len(set) == 0 {
			return nil
		}
		out := make([]int32, 0, len(set))
		for k := range set {
			out = append(out, k)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for i := 0; i < n; i++ {
		set := make(map[int32]bool)
		for _, c := range s.children[i] {
			set[c] = true
			for _, d := range s.desc[c] {
				set[d] = true
			}
		}
		s.desc[i] = keys(set)
	}
	for i := n - 1; i >= 0; i-- {
		set := make(map[int32]bool)
		for _, p := range s.parents[i] {
			set[p] = true
			for _, a := range s.asc[p] {
				set[a] = true
			}
		}
		s.asc[i] = keys(set)
	}
	for _, id := range mtnIDs {
		s.mtns = append(s.mtns, s.subIdx[id])
	}
	sort.Ints(s.mtns)
	s.owners = make([][]int32, n)
	for mi, m := range s.mtns {
		s.owners[m] = append(s.owners[m], int32(mi))
		for _, d := range s.desc[m] {
			s.owners[d] = append(s.owners[d], int32(mi))
		}
	}
	return s
}

// keywordQueries lists every query of 1..slots distinct keywords drawn from
// vocab, keywords in vocab order.
func keywordQueries(vocab []string, slots int) [][]string {
	var out [][]string
	var rec func(start int, cur []string)
	rec = func(start int, cur []string) {
		if len(cur) > 0 {
			out = append(out, append([]string(nil), cur...))
		}
		if len(cur) == slots {
			return
		}
		for i := start; i < len(vocab); i++ {
			rec(i+1, append(cur, vocab[i]))
		}
	}
	rec(0, nil)
	return out
}

// checkLatticeIndex compares phases 1 and 2 and the sub-lattice of every
// query against the reference implementations.
func checkLatticeIndex(t *testing.T, name string, sys *System, queries [][]string) {
	t.Helper()
	for _, kws := range queries {
		ph, err := sys.phase12(kws)
		if err != nil {
			t.Fatalf("%s %v: %v", name, kws, err)
		}
		if len(ph.nonKeywords) > 0 {
			continue
		}
		surviving := refPrune(sys.lat, ph.bindings)
		if !reflect.DeepEqual(ph.surviving, surviving) {
			t.Fatalf("%s %v: bitmap pruning kept %d nodes, the vertex walk %d", name, kws, len(ph.surviving), len(surviving))
		}
		if ph.stats.PrunedNodes != len(surviving) {
			t.Fatalf("%s %v: PrunedNodes = %d, want %d", name, kws, ph.stats.PrunedNodes, len(surviving))
		}
		mtns := refMTNs(sys.lat, surviving, len(kws))
		if !reflect.DeepEqual(ph.mtnIDs, mtns) {
			t.Fatalf("%s %v: mtnIDs = %v, want %v", name, kws, ph.mtnIDs, mtns)
		}
		if len(mtns) == 0 {
			continue
		}
		got := buildSublattice(sys.lat, sys.idx.rank, ph.mtnIDs)
		want := refBuildSublattice(sys.lat, mtns)
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"nodeID", got.nodeID, want.nodeID},
			{"subIdx", got.subIdx, want.subIdx},
			{"level", got.level, want.level},
			{"maxLevel", got.maxLevel, want.maxLevel},
			{"children", got.children, want.children},
			{"parents", got.parents, want.parents},
			{"desc", got.desc, want.desc},
			{"asc", got.asc, want.asc},
			{"mtns", got.mtns, want.mtns},
			{"owners", got.owners, want.owners},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Fatalf("%s %v: sublattice %s differs\ngot:  %v\nwant: %v", name, kws, f.name, f.got, f.want)
			}
		}
		gt, gu := got.descendantStats()
		wt, wu := want.descendantStats()
		if gt != wt || gu != wu {
			t.Fatalf("%s %v: descendantStats = (%d, %d), want (%d, %d)", name, kws, gt, gu, wt, wu)
		}
	}
}

// TestLatticeIndexMatchesReferenceDBLife runs every 1..KeywordSlots-keyword
// query over the Table 2 keywords on DBLife lattices of levels 3 to 5.
func TestLatticeIndexMatchesReferenceDBLife(t *testing.T) {
	if testing.Short() {
		t.Skip("level-5 lattice generation is slow")
	}
	eng, err := dblife.Generate(dblife.Config{Seed: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	var vocab []string
	seen := map[string]bool{}
	for _, q := range dblife.Workload() {
		for _, kw := range q.Keywords {
			if !seen[kw] {
				seen[kw] = true
				vocab = append(vocab, kw)
			}
		}
	}
	for level := 3; level <= 5; level++ {
		sys, err := Build(eng, lattice.Options{MaxJoins: level - 1, KeywordSlots: 3})
		if err != nil {
			t.Fatal(err)
		}
		checkLatticeIndex(t, fmt.Sprintf("dblife level %d", level), sys, keywordQueries(vocab, sys.lat.KeywordSlots()))
	}
}

// TestLatticeIndexMatchesReferenceRandom covers the random schemas of
// TestRandomSchemaStrategyEquivalence: the same seed and the same draws, so
// the same twelve schemas, each with every query over its vocabulary.
func TestLatticeIndexMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(20150327))
	vocabPlus := []string{"amber", "birch", "cedar", "dune", "ember", "flint", "grove", "haze", "missing"}
	for trial := 0; trial < 12; trial++ {
		sys, vocab := randomSystem(t, r)
		checkLatticeIndex(t, fmt.Sprintf("random schema %d", trial), sys, keywordQueries(vocab, sys.lat.KeywordSlots()))
		// Replay the equivalence sweep's query draws so the next schema is
		// the one it sees.
		for q := 0; q < 6; q++ {
			for nk := 1 + r.Intn(3); nk > 0; nk-- {
				r.Intn(len(vocabPlus))
			}
			r.Float64()
		}
	}
}
