package core

import (
	"math/bits"
	"slices"

	"kwsdbg/internal/lattice"
)

// sublattice is the Phase 2 restriction of the pruned lattice: the MTNs of a
// keyword query plus all of their descendants, reindexed densely so traversal
// state fits in flat arrays and bitsets.
//
// Index 0..n-1 are sub-node indexes; nodeID maps back to lattice node IDs.
// desc/asc are the strict descendant/ancestor index lists of each sub-node
// (descendants within the sub-lattice are complete, because descendant sets
// are downward closed; ancestors are restricted to the sub-lattice, which is
// the scope MPAN maximality is defined over).
type sublattice struct {
	lat    *lattice.Lattice
	nodeID []int       // sub index -> lattice node ID
	subIdx map[int]int // lattice node ID -> sub index
	level  []int       // sub index -> lattice level

	children [][]int32 // sub index -> child sub indexes
	parents  [][]int32 // sub index -> parent sub indexes (within sub)

	desc [][]int32 // strict descendants, sorted
	asc  [][]int32 // strict ancestors within sub, sorted

	mtns []int // sub indexes of the MTNs, sorted

	// owners[x] lists positions into mtns of the MTNs whose Desc+ contains x.
	owners [][]int32

	maxLevel int
}

// buildSublattice collects Desc+(m) for every MTN (given as lattice node IDs)
// and precomputes the navigation arrays. rank orders nodes by (level, label).
func buildSublattice(lat *lattice.Lattice, rank []int32, mtnIDs []int) *sublattice {
	s := &sublattice{lat: lat}

	// DFS down from the MTNs over lattice children links.
	seen := newBitset(len(rank))
	var stack []int
	push := func(id int) {
		if seen.has(id) {
			return
		}
		seen.set(id)
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

	// Order sub indexes by (level, label) so that index order is a
	// topological order from the base upward — handy for DP and determinism.
	// Sorting rank<<32|id as plain integers carries the ID along.
	n := len(s.nodeID)
	keys := make([]uint64, n)
	for i, id := range s.nodeID {
		keys[i] = uint64(rank[id])<<32 | uint64(id)
	}
	slices.Sort(keys)
	s.subIdx = make(map[int]int, n)
	for i, k := range keys {
		id := int(uint32(k))
		s.nodeID[i] = id
		s.subIdx[id] = i
	}

	s.level = make([]int, n)
	s.children = make([][]int32, n)
	nChildren := 0
	for _, id := range s.nodeID {
		nChildren += len(lat.Node(id).Children)
	}
	childBuf := make([]int32, 0, nChildren)
	for i, id := range s.nodeID {
		node := lat.Node(id)
		s.level[i] = node.Level
		if node.Level > s.maxLevel {
			s.maxLevel = node.Level
		}
		from := len(childBuf)
		for _, c := range node.Children {
			childBuf = append(childBuf, int32(s.subIdx[c]))
		}
		s.children[i] = span(childBuf, from)
	}
	// Parents within the sub-lattice are the transpose of children (the
	// sub-lattice is downward closed), listed in lattice ID order like the
	// lattice's own Parents; seen lists the sub-nodes in that order.
	byID := make([]int32, 0, n)
	seen.forEach(func(id int) { byID = append(byID, int32(s.subIdx[id])) })
	s.parents = transpose(s.children, n, byID)

	// Strict descendants, bottom-up over one bit matrix: row(x) is the union
	// of {c} and row(c) over the children c of x. Children sit at lower
	// indexes (index order is level order), so row(c) has no bits at or past
	// c and only its first c/64+1 words need merging.
	words := (n + 63) / 64
	mat := make([]uint64, n*words)
	total := 0
	for i := 0; i < n; i++ {
		row := mat[i*words : (i+1)*words]
		for _, c := range s.children[i] {
			ci := int(c)
			for k, w := range mat[ci*words : ci*words+(ci>>6)+1] {
				row[k] |= w
			}
			row[ci>>6] |= 1 << uint(ci&63)
		}
		total += bitset(row).count()
	}
	// List each row in ascending order.
	s.desc = make([][]int32, n)
	descBuf := make([]int32, 0, total)
	for i := 0; i < n; i++ {
		from := len(descBuf)
		for wi, w := range mat[i*words : (i+1)*words] {
			for ; w != 0; w &= w - 1 {
				descBuf = append(descBuf, int32(wi<<6+bits.TrailingZeros64(w)))
			}
		}
		s.desc[i] = span(descBuf, from)
	}
	// Strict ancestors are the transpose: x is an ancestor of d exactly
	// when d is a descendant of x.
	s.asc = transpose(s.desc, n, nil)

	for _, id := range mtnIDs {
		s.mtns = append(s.mtns, s.subIdx[id])
	}
	slices.Sort(s.mtns)

	s.owners = make([][]int32, n)
	for mi, m := range s.mtns {
		s.owners[m] = append(s.owners[m], int32(mi))
		for _, d := range s.desc[m] {
			s.owners[d] = append(s.owners[d], int32(mi))
		}
	}
	return s
}

// span returns buf[from:] capped at its length so appends cannot reach into
// the next list, or nil when it is empty.
func span(buf []int32, from int) []int32 {
	if len(buf) == from {
		return nil
	}
	return buf[from:len(buf):len(buf)]
}

// transpose inverts index lists: for each x < n, out[x] lists every i with x
// in lists[i], in the order i appears in order (ascending when order is
// nil). Empty lists are nil; the lists share one backing array.
func transpose(lists [][]int32, n int, order []int32) [][]int32 {
	count := make([]int, n)
	total := 0
	for _, l := range lists {
		for _, x := range l {
			count[x]++
		}
		total += len(l)
	}
	out := make([][]int32, n)
	buf := make([]int32, total)
	for x, off := 0, 0; x < n; x++ {
		if count[x] > 0 {
			out[x] = buf[off : off : off+count[x]]
			off += count[x]
		}
	}
	visit := func(i int32) {
		for _, x := range lists[i] {
			out[x] = append(out[x], i)
		}
	}
	if order == nil {
		for i := range lists {
			visit(int32(i))
		}
	} else {
		for _, i := range order {
			visit(i)
		}
	}
	return out
}

// len returns the number of sub-lattice nodes.
func (s *sublattice) len() int { return len(s.nodeID) }

// node returns the lattice node behind a sub index.
func (s *sublattice) node(i int) *lattice.Node { return s.lat.Node(s.nodeID[i]) }

// descendantStats returns the total (with multiplicity across MTNs) and
// unique descendant counts of the MTN set — the quantities behind Figure 10
// and the reuse percentage of Figure 13.
func (s *sublattice) descendantStats() (total, unique int) {
	seen := newBitset(s.len())
	for _, m := range s.mtns {
		total += len(s.desc[m])
		for _, d := range s.desc[m] {
			seen.set(int(d))
		}
	}
	return total, seen.count()
}
