// Package acg implements the Annotations Connectivity Graph of §6.2
// (Figure 6) and the machinery built on it: edge weights derived from
// shared annotations, the stability criterion of Definition 6.1, the
// hop-distance metadata profile of Figure 7 that guides the selection of
// the spreading radius K, and K-hop neighborhood extraction for the
// focal-based approximate search of §6.3.
package acg

import (
	"slices"
	"sort"
	"sync"

	"nebula/internal/annotation"
	"nebula/internal/relational"
)

// Graph is the ACG: one node per annotated tuple, an edge between two
// tuples iff they share at least one annotation. The edge weight α is the
// ratio between the common annotations and the total annotations attached
// to the two tuples (Jaccard of their annotation sets), recomputed from the
// node sets on demand so it stays exact as annotations accumulate.
//
// Layout: nodes and annotations carry dense int32 ordinals. One
// map[TupleID]int32 index resolves a tuple to its node slot, and one
// map[annotation.ID]int32 resolves an annotation to its ordinal; every
// other reference is an ordinal. Each node keeps its neighbors and its
// annotations as two sorted []int32, so an edge check is a binary search
// and Weight (like the edge-survival test of RemoveAttachment) merges two
// sorted annotation lists. Each annotation keeps its node slots in
// attachment order, the order AttachmentList exports and snapshots encode.
// Slots of removed nodes and ordinals of annotations left without
// attachments are reused, so the arrays stay dense under churn. Traversals
// (HopsToEach, Neighborhood, PathWeights, AffectedAnnotations) allocate
// their own scratch per call — a visited bitset of one bit per node slot —
// and share none, so concurrent readers never contend.
//
// Synchronization contract: the engine's sharded lock group is the Graph's
// primary guard. The only mutations reachable while holding a single shard
// lock are AddAnnotation and AddAttachment (the annotation-insert path) —
// those serialize on mu below. Every other method (readers included) is
// called only under contexts holding every shard, which excludes the
// single-shard mutators, so it takes no internal lock.
type Graph struct {
	// mu serializes AddAnnotation/AddAttachment (and their stability
	// observations) against each other across shard-locked callers.
	mu sync.Mutex
	// index maps each annotated tuple to its node slot.
	index map[relational.TupleID]int32
	// nodes is indexed by slot; freeNodes lists the cleared slots of
	// removed nodes, reused before the slice grows.
	nodes     []node
	freeNodes []int32
	// annIndex maps each annotation with at least one attachment to its
	// ordinal in anns; freeAnns lists reusable ordinals.
	annIndex map[annotation.ID]int32
	anns     []annEntry
	freeAnns []int32

	stability stabilityTracker
}

// node is one tuple's slot. A live node has at least one annotation; a
// free slot has none.
type node struct {
	id relational.TupleID
	// adj holds the neighbor slots, sorted ascending (edges are
	// unweighted; weights are computed on demand).
	adj []int32
	// anns holds the ordinals of the attached annotations, sorted
	// ascending.
	anns []int32
}

// annEntry is one annotation's ordinal slot: the node slots it is attached
// to, in attachment order.
type annEntry struct {
	id     annotation.ID
	tuples []int32
}

// New returns an empty ACG with the given stability parameters: batches of
// batchSize annotations are stable when newEdges/attachments < mu
// (Definition 6.1).
func New(batchSize int, mu float64) *Graph {
	return &Graph{
		index:    make(map[relational.TupleID]int32),
		annIndex: make(map[annotation.ID]int32),
		stability: stabilityTracker{
			batchSize: batchSize,
			mu:        mu,
		},
	}
}

// Nodes returns the number of annotated tuples in the graph.
func (g *Graph) Nodes() int { return len(g.index) }

// Edges returns the number of edges.
func (g *Graph) Edges() int {
	n := 0
	for i := range g.nodes {
		n += len(g.nodes[i].adj)
	}
	return n / 2
}

// Contains reports whether the tuple is a node of the graph.
func (g *Graph) Contains(t relational.TupleID) bool {
	_, ok := g.index[t]
	return ok
}

// AddAnnotation records a (new) annotation together with all of its
// attached tuples, adding the implied edges. It also advances the stability
// tracker: the annotation contributes 1 to the batch, len(tuples) to M, and
// each genuinely new edge to N.
func (g *Graph) AddAnnotation(id annotation.ID, tuples []relational.TupleID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	newEdges := 0
	for _, t := range tuples {
		newEdges += g.attach(id, t)
	}
	g.stability.observe(1, len(tuples), newEdges)
}

// AddAttachment records one additional attachment of an existing (or new)
// annotation — the post-verification update path: accepting a prediction
// adds edges between the tuple and the annotation's focal. The stability
// tracker counts the attachment but not a new annotation.
func (g *Graph) AddAttachment(id annotation.ID, t relational.TupleID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	newEdges := g.attach(id, t)
	g.stability.observe(0, 1, newEdges)
}

// attach wires one (annotation, tuple) pair and returns the number of new
// edges created.
func (g *Graph) attach(id annotation.ID, t relational.TupleID) int {
	a := g.annOrdinal(id)
	n := g.nodeSlot(t)
	i, dup := slices.BinarySearch(g.nodes[n].anns, a)
	if dup {
		return 0
	}
	g.nodes[n].anns = slices.Insert(g.nodes[n].anns, i, a)
	newEdges := 0
	for _, other := range g.anns[a].tuples {
		if g.addEdge(n, other) {
			newEdges++
		}
	}
	g.anns[a].tuples = append(g.anns[a].tuples, n)
	return newEdges
}

// nodeSlot returns the tuple's slot, allocating one (a reused slot when
// available) for a new node.
func (g *Graph) nodeSlot(t relational.TupleID) int32 {
	if n, ok := g.index[t]; ok {
		return n
	}
	n := allocSlot(&g.nodes, &g.freeNodes)
	g.nodes[n].id = t
	g.index[t] = n
	return n
}

// allocSlot returns an empty slot of items: the last one on free if any,
// else a new one appended.
func allocSlot[T any](items *[]T, free *[]int32) int32 {
	if k := len(*free); k > 0 {
		n := (*free)[k-1]
		*free = (*free)[:k-1]
		return n
	}
	var zero T
	*items = append(*items, zero)
	return int32(len(*items) - 1)
}

// freeNode releases the slot of a node left without annotations.
func (g *Graph) freeNode(n int32) {
	delete(g.index, g.nodes[n].id)
	g.nodes[n] = node{}
	g.freeNodes = append(g.freeNodes, n)
}

// annOrdinal returns the annotation's ordinal, allocating one for an
// annotation without attachments.
func (g *Graph) annOrdinal(id annotation.ID) int32 {
	if a, ok := g.annIndex[id]; ok {
		return a
	}
	a := allocSlot(&g.anns, &g.freeAnns)
	g.anns[a].id = id
	g.annIndex[id] = a
	return a
}

// detach removes node n from annotation a's attachment list, keeping the
// attachment order of the rest, and releases the ordinal once the list is
// empty. The caller removes a from the node's own list.
func (g *Graph) detach(a, n int32) {
	e := &g.anns[a]
	if i := slices.Index(e.tuples, n); i >= 0 {
		e.tuples = slices.Delete(e.tuples, i, i+1)
	}
	if len(e.tuples) == 0 {
		delete(g.annIndex, e.id)
		*e = annEntry{}
		g.freeAnns = append(g.freeAnns, a)
	}
}

// addEdge inserts the undirected edge and reports whether it was new.
func (g *Graph) addEdge(a, b int32) bool {
	if !insertSorted(&g.nodes[a].adj, b) {
		return false
	}
	insertSorted(&g.nodes[b].adj, a)
	return true
}

// insertSorted adds v to the sorted list unless present and reports
// whether it did.
func insertSorted(list *[]int32, v int32) bool {
	i, found := slices.BinarySearch(*list, v)
	if found {
		return false
	}
	*list = slices.Insert(*list, i, v)
	return true
}

// removeSorted deletes v from the sorted list if present.
func removeSorted(list *[]int32, v int32) {
	if i, found := slices.BinarySearch(*list, v); found {
		*list = slices.Delete(*list, i, i+1)
	}
}

// common counts the values two sorted lists share.
func common(x, y []int32) int {
	n := 0
	for i, j := 0, 0; i < len(x) && j < len(y); {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Weight returns the edge weight α between two tuples: |common| / |union|
// of their annotation sets, or 0 when no edge exists.
func (g *Graph) Weight(a, b relational.TupleID) float64 {
	na, ok := g.index[a]
	if !ok {
		return 0
	}
	nb, ok := g.index[b]
	if !ok {
		return 0
	}
	if _, connected := slices.BinarySearch(g.nodes[na].adj, nb); !connected {
		return 0
	}
	return g.weight(na, nb)
}

// weight is Weight between two connected slots.
func (g *Graph) weight(a, b int32) float64 {
	sa, sb := g.nodes[a].anns, g.nodes[b].anns
	c := common(sa, sb)
	union := len(sa) + len(sb) - c
	if union == 0 {
		return 0
	}
	return float64(c) / float64(union)
}

// Neighbors returns the direct neighbors of a tuple, sorted for
// determinism.
func (g *Graph) Neighbors(t relational.TupleID) []relational.TupleID {
	n, ok := g.index[t]
	if !ok || len(g.nodes[n].adj) == 0 {
		return nil
	}
	out := g.tuples(g.nodes[n].adj)
	sortTuples(out)
	return out
}

// tuples maps node slots to their tuples.
func (g *Graph) tuples(slots []int32) []relational.TupleID {
	out := make([]relational.TupleID, len(slots))
	for i, n := range slots {
		out[i] = g.nodes[n].id
	}
	return out
}

// AnnotationsOf returns how many annotations are attached to a tuple.
func (g *Graph) AnnotationsOf(t relational.TupleID) int {
	n, ok := g.index[t]
	if !ok {
		return 0
	}
	return len(g.nodes[n].anns)
}

// RemoveTuple deletes a tuple's node: its annotation memberships, its
// edges, and its entries in other nodes' adjacency. Called when the data
// tuple is deleted from the database. Stability counters are not rewound —
// the batch history already happened.
func (g *Graph) RemoveTuple(t relational.TupleID) {
	n, ok := g.index[t]
	if !ok {
		return
	}
	for _, a := range g.nodes[n].anns {
		g.detach(a, n)
	}
	for _, nb := range g.nodes[n].adj {
		removeSorted(&g.nodes[nb].adj, n)
	}
	g.freeNode(n)
}

// AttachmentList exports the graph's (annotation → tuples) mapping. Tuple
// order within an annotation follows attachment order; the map is a copy.
// Together with StabilityState this is everything needed to reconstruct
// the graph (see internal/snapshot).
func (g *Graph) AttachmentList() map[annotation.ID][]relational.TupleID {
	out := make(map[annotation.ID][]relational.TupleID, len(g.annIndex))
	for id, a := range g.annIndex {
		out[id] = g.tuples(g.anns[a].tuples)
	}
	return out
}

// StabilityState exports the stability tracker's configuration and
// counters for snapshotting.
func (g *Graph) StabilityState() (batchSize int, mu float64, batchAnnotations, batchAttachments, batchNewEdges, batchesClosed int, stable bool) {
	s := g.stability
	return s.batchSize, s.mu, s.batchAnnotations, s.batchAttachments, s.batchNewEdges, s.batchesClosed, s.stable
}

// RestoreStabilityState reinstates a snapshotted stability tracker.
func (g *Graph) RestoreStabilityState(batchSize int, mu float64, batchAnnotations, batchAttachments, batchNewEdges, batchesClosed int, stable bool) {
	g.stability = stabilityTracker{
		batchSize:        batchSize,
		mu:               mu,
		batchAnnotations: batchAnnotations,
		batchAttachments: batchAttachments,
		batchNewEdges:    batchNewEdges,
		batchesClosed:    batchesClosed,
		stable:           stable,
	}
}

func sortTuples(ts []relational.TupleID) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Table != ts[j].Table {
			return ts[i].Table < ts[j].Table
		}
		return ts[i].Key < ts[j].Key
	})
}
