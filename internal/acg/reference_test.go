package acg

import (
	"sort"

	"nebula/internal/annotation"
	"nebula/internal/relational"
)

// refGraph is the map-based ACG the dense Graph replaced, kept as the
// differential-test reference: per-node annotation sets, per-annotation
// tuple lists in attachment order, and per-node adjacency sets plus lists,
// all keyed by TupleID, with map-allocating BFS. It mirrors every Graph
// query the engine relies on, stability tracking aside.
type refGraph struct {
	anns  map[relational.TupleID]map[annotation.ID]struct{}
	byAnn map[annotation.ID][]relational.TupleID
	adj   map[relational.TupleID]*refAdjacency
}

type refAdjacency struct {
	set  map[relational.TupleID]struct{}
	list []relational.TupleID
}

func newRefGraph() *refGraph {
	return &refGraph{
		anns:  make(map[relational.TupleID]map[annotation.ID]struct{}),
		byAnn: make(map[annotation.ID][]relational.TupleID),
		adj:   make(map[relational.TupleID]*refAdjacency),
	}
}

func (g *refGraph) Nodes() int { return len(g.anns) }

func (g *refGraph) Edges() int {
	n := 0
	for _, nb := range g.adj {
		n += len(nb.list)
	}
	return n / 2
}

func (g *refGraph) AddAnnotation(id annotation.ID, tuples []relational.TupleID) {
	for _, t := range tuples {
		g.attach(id, t)
	}
}

func (g *refGraph) AddAttachment(id annotation.ID, t relational.TupleID) { g.attach(id, t) }

func (g *refGraph) attach(id annotation.ID, t relational.TupleID) {
	set, ok := g.anns[t]
	if !ok {
		set = make(map[annotation.ID]struct{})
		g.anns[t] = set
	}
	if _, dup := set[id]; dup {
		return
	}
	set[id] = struct{}{}
	for _, other := range g.byAnn[id] {
		if other != t {
			g.addEdge(t, other)
		}
	}
	g.byAnn[id] = append(g.byAnn[id], t)
}

func (a *refAdjacency) add(t relational.TupleID) bool {
	if _, dup := a.set[t]; dup {
		return false
	}
	a.set[t] = struct{}{}
	a.list = append(a.list, t)
	return true
}

func (a *refAdjacency) remove(t relational.TupleID) {
	if _, ok := a.set[t]; !ok {
		return
	}
	delete(a.set, t)
	for i, x := range a.list {
		if x == t {
			a.list = append(a.list[:i:i], a.list[i+1:]...)
			break
		}
	}
}

func (g *refGraph) node(t relational.TupleID) *refAdjacency {
	na, ok := g.adj[t]
	if !ok {
		na = &refAdjacency{set: make(map[relational.TupleID]struct{})}
		g.adj[t] = na
	}
	return na
}

func (g *refGraph) addEdge(a, b relational.TupleID) {
	if g.node(a).add(b) {
		g.node(b).add(a)
	}
}

func (g *refGraph) Weight(a, b relational.TupleID) float64 {
	na, ok := g.adj[a]
	if !ok {
		return 0
	}
	if _, connected := na.set[b]; !connected {
		return 0
	}
	sa, sb := g.anns[a], g.anns[b]
	common := 0
	for id := range sa {
		if _, ok := sb[id]; ok {
			common++
		}
	}
	union := len(sa) + len(sb) - common
	if union == 0 {
		return 0
	}
	return float64(common) / float64(union)
}

func (g *refGraph) Neighbors(t relational.TupleID) []relational.TupleID {
	nb, ok := g.adj[t]
	if !ok {
		return nil
	}
	out := append([]relational.TupleID(nil), nb.list...)
	sortTuples(out)
	return out
}

func (g *refGraph) removeFromAnn(id annotation.ID, t relational.TupleID) {
	tuples := g.byAnn[id]
	for i, other := range tuples {
		if other == t {
			g.byAnn[id] = append(tuples[:i:i], tuples[i+1:]...)
			break
		}
	}
	if len(g.byAnn[id]) == 0 {
		delete(g.byAnn, id)
	}
}

func (g *refGraph) RemoveTuple(t relational.TupleID) {
	anns, ok := g.anns[t]
	if !ok {
		return
	}
	for id := range anns {
		g.removeFromAnn(id, t)
	}
	delete(g.anns, t)
	if adj, ok := g.adj[t]; ok {
		for _, nb := range adj.list {
			g.adj[nb].remove(t)
			if len(g.adj[nb].list) == 0 {
				delete(g.adj, nb)
			}
		}
		delete(g.adj, t)
	}
}

func (g *refGraph) RemoveAttachment(id annotation.ID, t relational.TupleID) bool {
	set, ok := g.anns[t]
	if !ok {
		return false
	}
	if _, has := set[id]; !has {
		return false
	}
	delete(set, id)
	g.removeFromAnn(id, t)
	if adj, ok := g.adj[t]; ok {
		for _, nb := range append([]relational.TupleID(nil), adj.list...) {
			if g.shareAnnotation(t, nb) {
				continue
			}
			adj.remove(nb)
			if onb, ok := g.adj[nb]; ok {
				onb.remove(t)
				if len(onb.list) == 0 {
					delete(g.adj, nb)
				}
			}
		}
		if len(adj.list) == 0 {
			delete(g.adj, t)
		}
	}
	if len(set) == 0 {
		delete(g.anns, t)
	}
	return true
}

func (g *refGraph) shareAnnotation(a, b relational.TupleID) bool {
	for id := range g.anns[a] {
		if _, ok := g.anns[b][id]; ok {
			return true
		}
	}
	return false
}

func (g *refGraph) AttachmentList() map[annotation.ID][]relational.TupleID {
	out := make(map[annotation.ID][]relational.TupleID, len(g.byAnn))
	for id, tuples := range g.byAnn {
		out[id] = append([]relational.TupleID(nil), tuples...)
	}
	return out
}

func (g *refGraph) Neighborhood(focal []relational.TupleID, k int) []relational.TupleID {
	dist := g.bfs(focal, k)
	out := make([]relational.TupleID, 0, len(dist))
	for t := range dist {
		out = append(out, t)
	}
	sortTuples(out)
	return out
}

func (g *refGraph) HopsToAny(t relational.TupleID, focal []relational.TupleID) (int, bool) {
	for _, f := range focal {
		if f == t {
			return 0, true
		}
	}
	dist := g.bfs(focal, -1)
	d, ok := dist[t]
	return d, ok
}

// bfs is the unbounded-queue, distance-map BFS: sources missing from the
// graph are at distance 0 with no neighbors.
func (g *refGraph) bfs(sources []relational.TupleID, maxDepth int) map[relational.TupleID]int {
	dist := make(map[relational.TupleID]int, len(sources))
	queue := make([]relational.TupleID, 0, len(sources))
	for _, s := range sources {
		if _, dup := dist[s]; dup {
			continue
		}
		dist[s] = 0
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		d := dist[cur]
		if maxDepth >= 0 && d == maxDepth {
			continue
		}
		adj, ok := g.adj[cur]
		if !ok {
			continue
		}
		for _, nb := range adj.list {
			if _, seen := dist[nb]; seen {
				continue
			}
			dist[nb] = d + 1
			queue = append(queue, nb)
		}
	}
	return dist
}

func (g *refGraph) PathWeights(source relational.TupleID, maxHops int) map[relational.TupleID]float64 {
	if maxHops < 1 {
		return nil
	}
	if _, ok := g.adj[source]; !ok {
		return nil
	}
	dist := map[relational.TupleID]int{source: 0}
	best := map[relational.TupleID]float64{source: 1}
	frontier := []relational.TupleID{source}
	for depth := 1; depth <= maxHops && len(frontier) > 0; depth++ {
		var next []relational.TupleID
		for _, cur := range frontier {
			adj, ok := g.adj[cur]
			if !ok {
				continue
			}
			for _, nb := range adj.list {
				if _, seen := dist[nb]; !seen {
					dist[nb] = depth
					next = append(next, nb)
				}
			}
		}
		for _, nb := range next {
			maxProd := 0.0
			for _, pred := range g.adj[nb].list {
				if dist[pred] != depth-1 {
					continue
				}
				if p := best[pred] * g.Weight(pred, nb); p > maxProd {
					maxProd = p
				}
			}
			best[nb] = maxProd
		}
		frontier = next
	}
	delete(best, source)
	return best
}

func (g *refGraph) AffectedAnnotations(seeds []relational.TupleID, k int) []annotation.ID {
	set := make(map[annotation.ID]struct{})
	for t := range g.bfs(seeds, k) {
		for id := range g.anns[t] {
			set[id] = struct{}{}
		}
	}
	out := make([]annotation.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
