package core

import (
	"math/bits"
	"sort"

	"kwsdbg/internal/lattice"
)

// keywordPair is one keyword-bearing vertex kind of the lattice, a relation
// copy R_j with j >= 1, together with the bitmap of the nodes that use it.
type keywordPair struct {
	rel   string
	copy  int
	nodes bitset // over lattice node IDs
}

// latticeIndex holds what the online phases need that depends only on the
// lattice, computed once per System because the lattice is immutable after
// Phase 0.
type latticeIndex struct {
	// pairs lists every (relation, copy >= 1) pair that occurs in some node,
	// sorted by (relation, copy). Phase 1 prunes a node exactly when one of
	// its pairs cannot bind, so the pruned set is the union of the bitmaps of
	// the unbindable pairs.
	pairs []keywordPair
	// rank[id] is node id's position in (level, label) order, the sub-lattice
	// index order.
	rank []int32
}

// indexLattice builds the pair bitmaps and the rank of every node.
func indexLattice(lat *lattice.Lattice) latticeIndex {
	n := lat.Len()
	idx := latticeIndex{rank: make([]int32, n)}
	pos := int32(0)
	for k := 1; k <= lat.Levels(); k++ {
		for _, id := range lat.Level(k) { // already ordered by label
			idx.rank[id] = pos
			pos++
		}
	}
	type pairKey struct {
		rel  string
		copy int
	}
	slot := make(map[pairKey]int)
	for id := 0; id < n; id++ {
		for _, v := range lat.Node(id).Vertices {
			if v.Copy == 0 {
				continue
			}
			k := pairKey{v.Rel, v.Copy}
			i, ok := slot[k]
			if !ok {
				i = len(idx.pairs)
				slot[k] = i
				idx.pairs = append(idx.pairs, keywordPair{rel: v.Rel, copy: v.Copy, nodes: newBitset(n)})
			}
			idx.pairs[i].nodes.set(id)
		}
	}
	sort.Slice(idx.pairs, func(a, b int) bool {
		pa, pb := idx.pairs[a], idx.pairs[b]
		if pa.rel != pb.rel {
			return pa.rel < pb.rel
		}
		return pa.copy < pb.copy
	})
	return idx
}

// prune is Phase 1b: it returns, in ascending order, the IDs of the nodes
// whose every keyword copy j is bound, that is j <= len(bindings) and the
// j-th keyword occurs in the copy's relation.
func (idx *latticeIndex) prune(bindings []map[string]bool) []int {
	n := len(idx.rank)
	dead := newBitset(n)
	for _, p := range idx.pairs {
		if p.copy > len(bindings) || !bindings[p.copy-1][p.rel] {
			dead.or(p.nodes)
		}
	}
	surviving := make([]int, 0, n-dead.count())
	for wi, w := range dead {
		for live := ^w; live != 0; live &= live - 1 {
			id := wi<<6 + bits.TrailingZeros64(live)
			if id >= n {
				break
			}
			surviving = append(surviving, id)
		}
	}
	return surviving
}
