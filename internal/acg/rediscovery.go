package acg

import (
	"slices"
	"sort"

	"nebula/internal/annotation"
	"nebula/internal/relational"
)

// This file holds the graph surface of change-driven re-discovery: the
// retraction primitive that unwires one (annotation, tuple) pair, and the
// change-data-capture query that maps mutated rows to the annotations whose
// discovered attachments those mutations can affect.

// RemoveAttachment unwires one (annotation, tuple) pair — the retraction
// half of re-discovery, the inverse of AddAttachment. An edge between the
// tuple and another node survives only while the two still share at least
// one annotation; edges that lose their last shared annotation are removed,
// and nodes left without memberships disappear. Stability counters are not
// rewound (the batch history already happened). It reports whether the pair
// was present.
func (g *Graph) RemoveAttachment(id annotation.ID, t relational.TupleID) bool {
	n, ok := g.index[t]
	if !ok {
		return false
	}
	a, ok := g.annIndex[id]
	if !ok {
		return false
	}
	nd := &g.nodes[n]
	i, has := slices.BinarySearch(nd.anns, a)
	if !has {
		return false
	}
	nd.anns = slices.Delete(nd.anns, i, i+1)
	g.detach(a, n)
	kept := nd.adj[:0]
	for _, nb := range nd.adj {
		if common(nd.anns, g.nodes[nb].anns) > 0 {
			kept = append(kept, nb)
			continue
		}
		removeSorted(&g.nodes[nb].adj, n)
	}
	nd.adj = kept
	if len(nd.anns) == 0 {
		g.freeNode(n)
	}
	return true
}

// AffectedAnnotations is the change-data-capture query: the annotations
// attached to any tuple within k hops of the seed tuples (the mutated rows
// and, for inserts, their FK-related rows). These are exactly the prior
// attachments whose discovery evidence the mutation can influence through
// the graph — the set re-queued for re-discovery. Seeds outside the graph
// contribute nothing beyond themselves. Sorted for determinism.
func (g *Graph) AffectedAnnotations(seeds []relational.TupleID, k int) []annotation.ID {
	seen := newBitset(len(g.nodes))
	hit := newBitset(len(g.anns))
	out := []annotation.ID{}
	collect := func(n int32) {
		for _, a := range g.nodes[n].anns {
			if !hit.has(a) {
				hit.set(a)
				out = append(out, g.anns[a].id)
			}
		}
	}
	frontier := g.sources(seeds, seen)
	for _, n := range frontier {
		collect(n)
	}
	g.bfs(frontier, seen, k, func(n int32, _ int) bool {
		collect(n)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
