package acg

import (
	"slices"

	"nebula/internal/relational"
)

// Neighborhood returns the tuples within k hops of any of the given focal
// tuples (the focal tuples themselves included, at distance 0), via
// breadth-first traversal of the unweighted ACG. The result is sorted for
// determinism. This is the tuple set the focal-spreading search
// materializes into a miniDB (§6.3, Fixed-Scope variant).
func (g *Graph) Neighborhood(focal []relational.TupleID, k int) []relational.TupleID {
	seen := newBitset(len(g.nodes))
	frontier := g.sources(focal, seen)
	out := make([]relational.TupleID, 0, len(focal))
	for _, f := range focal {
		// Focal tuples outside the graph are at distance 0 too; they just
		// have no neighbors.
		if !g.Contains(f) {
			out = append(out, f)
		}
	}
	out = append(out, g.tuples(frontier)...)
	g.bfs(frontier, seen, k, func(n int32, _ int) bool {
		out = append(out, g.nodes[n].id)
		return true
	})
	sortTuples(out)
	return slices.Compact(out)
}

// HopsToAny returns the length of the shortest (unweighted) path from t to
// any of the focal tuples, and whether t is reachable. A focal tuple is at
// distance 0. This is the S.length computation of the Figure 7 profile
// update; it is the one-target case of HopsToEach.
func (g *Graph) HopsToAny(t relational.TupleID, focal []relational.TupleID) (int, bool) {
	hops, reachable := g.HopsToEach([]relational.TupleID{t}, focal)
	return hops[0], reachable[0]
}

// HopsToEach returns, for every target, what HopsToAny returns for it —
// the shortest-path length to any focal tuple and whether one exists —
// from a single breadth-first search shared by all targets. A target in the
// focal is at distance 0; a target with no edges that is not in the focal
// is unreachable without any traversal. The search expands the focal level
// by level and stops as soon as every target has a distance, so its cost
// follows the answer rather than the size of the focal's component.
// Duplicate targets get the same answer.
func (g *Graph) HopsToEach(targets, focal []relational.TupleID) (hops []int, reachable []bool) {
	hops = make([]int, len(targets))
	reachable = make([]bool, len(targets))
	seen := newBitset(len(g.nodes))
	frontier := g.sources(focal, seen)
	var pending map[int32][]int // target slot → indexes still without a distance
	for i, t := range targets {
		n, ok := g.index[t]
		switch {
		case !ok:
			reachable[i] = slices.Contains(focal, t)
		case seen.has(n):
			reachable[i] = true
		case len(g.nodes[n].adj) > 0:
			if pending == nil {
				pending = make(map[int32][]int)
			}
			pending[n] = append(pending[n], i)
		}
	}
	if len(pending) == 0 {
		return hops, reachable
	}
	g.bfs(frontier, seen, -1, func(n int32, depth int) bool {
		idx, ok := pending[n]
		if !ok {
			return true
		}
		for _, i := range idx {
			hops[i], reachable[i] = depth, true
		}
		delete(pending, n)
		return len(pending) > 0
	})
	return hops, reachable
}

// sources resolves the tuples inside the graph to their node slots — the
// depth-0 frontier of a search — marking each in seen and dropping
// duplicates.
func (g *Graph) sources(ts []relational.TupleID, seen bitset) []int32 {
	out := make([]int32, 0, len(ts))
	for _, t := range ts {
		if n, ok := g.index[t]; ok && !seen.has(n) {
			seen.set(n)
			out = append(out, n)
		}
	}
	return out
}

// bfs runs a level-synchronous breadth-first search from frontier (the
// depth-0 slots, already marked in seen) up to maxDepth hops (maxDepth < 0
// means unbounded), calling visit for each newly reached slot with its
// depth. It stops as soon as visit returns false. frontier's storage is
// reused.
func (g *Graph) bfs(frontier []int32, seen bitset, maxDepth int, visit func(n int32, depth int) bool) {
	var next []int32
	for depth := 1; len(frontier) > 0 && (maxDepth < 0 || depth <= maxDepth); depth++ {
		for _, cur := range frontier {
			for _, nb := range g.nodes[cur].adj {
				if seen.has(nb) {
					continue
				}
				seen.set(nb)
				if !visit(nb, depth) {
					return
				}
				next = append(next, nb)
			}
		}
		frontier, next = next, frontier[:0]
	}
}

// bitset is per-call traversal scratch: one bit per node slot (or
// annotation ordinal). Each search allocates its own, so concurrent
// readers share nothing.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(uint32(i)&63)) != 0 }

func (b bitset) set(i int32) { b[i>>6] |= 1 << (uint32(i) & 63) }

func (b bitset) clear(i int32) { b[i>>6] &^= 1 << (uint32(i) & 63) }
