package acg

import "nebula/internal/relational"

// PathWeights computes, for every tuple within maxHops of the source, the
// strongest shortest-path weight: among the unweighted-shortest paths from
// source to the tuple, the maximum product of the edge weights along the
// path. This implements the §6.2 extension of the focal-based confidence
// adjustment ("take into account the shortest path — in terms of the number
// of hops — between t and each focal tuple instead of only the direct
// edges ... by multiplying the weights of the in-between edges").
//
// The source itself is excluded from the result. maxHops < 1 returns nil.
func (g *Graph) PathWeights(source relational.TupleID, maxHops int) map[relational.TupleID]float64 {
	if maxHops < 1 {
		return nil
	}
	src, ok := g.index[source]
	if !ok || len(g.nodes[src].adj) == 0 {
		return nil
	}
	seen := newBitset(len(g.nodes))
	seen.set(src)
	// prev marks the previous layer: a node's same-shortest-length
	// predecessors are exactly its neighbors there.
	prev := newBitset(len(g.nodes))
	best := map[int32]float64{src: 1}
	out := make(map[relational.TupleID]float64)
	frontier := []int32{src}
	for depth := 1; depth <= maxHops && len(frontier) > 0; depth++ {
		// Two passes per layer: first discover the layer's members, then
		// maximize products over ALL same-shortest-length predecessors (a
		// node can be reached from several previous-layer nodes).
		var next []int32
		for _, cur := range frontier {
			prev.set(cur)
			for _, nb := range g.nodes[cur].adj {
				if !seen.has(nb) {
					seen.set(nb)
					next = append(next, nb)
				}
			}
		}
		for _, nb := range next {
			maxProd := 0.0
			for _, pred := range g.nodes[nb].adj {
				if !prev.has(pred) {
					continue
				}
				if p := best[pred] * g.weight(pred, nb); p > maxProd {
					maxProd = p
				}
			}
			best[nb] = maxProd
			out[g.nodes[nb].id] = maxProd
		}
		for _, cur := range frontier {
			prev.clear(cur)
		}
		frontier = next
	}
	return out
}
