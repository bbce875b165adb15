package acg

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"nebula/internal/annotation"
	"nebula/internal/relational"
)

func tid(n int) relational.TupleID {
	return relational.TupleID{Table: "Gene", Key: fmt.Sprintf("s:jw%04d", n)}
}

func TestAddAnnotationBuildsEdges(t *testing.T) {
	g := New(0, 0)
	g.AddAnnotation("a1", []relational.TupleID{tid(1), tid(2), tid(3)})
	if g.Nodes() != 3 {
		t.Fatalf("nodes = %d", g.Nodes())
	}
	if g.Edges() != 3 { // triangle
		t.Fatalf("edges = %d", g.Edges())
	}
	if !g.Contains(tid(1)) || g.Contains(tid(9)) {
		t.Error("Contains wrong")
	}
	// Each pair shares exactly annotation a1 and each node has 1
	// annotation: weight = 1/1 = 1.
	if w := g.Weight(tid(1), tid(2)); w != 1 {
		t.Errorf("weight = %f", w)
	}
}

func TestWeightJaccard(t *testing.T) {
	g := New(0, 0)
	g.AddAnnotation("a1", []relational.TupleID{tid(1), tid(2)})
	g.AddAnnotation("a2", []relational.TupleID{tid(1), tid(2)})
	g.AddAnnotation("a3", []relational.TupleID{tid(1), tid(3)})
	// t1 has {a1,a2,a3}; t2 has {a1,a2}; common {a1,a2}; union 3.
	if w := g.Weight(tid(1), tid(2)); w != 2.0/3.0 {
		t.Errorf("weight(1,2) = %f", w)
	}
	// t1-t3 share a3 only: common 1, union 3.
	if w := g.Weight(tid(1), tid(3)); w != 1.0/3.0 {
		t.Errorf("weight(1,3) = %f", w)
	}
	// No edge between 2 and 3.
	if w := g.Weight(tid(2), tid(3)); w != 0 {
		t.Errorf("weight(2,3) = %f", w)
	}
	if w := g.Weight(tid(9), tid(1)); w != 0 {
		t.Errorf("weight(missing) = %f", w)
	}
}

func TestWeightSymmetricProperty(t *testing.T) {
	g := New(0, 0)
	for i := 0; i < 10; i++ {
		g.AddAnnotation(annotation.ID(fmt.Sprintf("a%d", i)),
			[]relational.TupleID{tid(i % 5), tid((i + 1) % 5), tid((i * 3) % 5)})
	}
	f := func(a, b uint8) bool {
		x, y := tid(int(a)%5), tid(int(b)%5)
		return g.Weight(x, y) == g.Weight(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateAttachmentIdempotent(t *testing.T) {
	g := New(0, 0)
	g.AddAnnotation("a1", []relational.TupleID{tid(1), tid(2)})
	edges := g.Edges()
	g.AddAttachment("a1", tid(2)) // duplicate
	if g.Edges() != edges {
		t.Error("duplicate attachment created edges")
	}
	if g.AnnotationsOf(tid(2)) != 1 {
		t.Errorf("annotations of t2 = %d", g.AnnotationsOf(tid(2)))
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(0, 0)
	g.AddAnnotation("a1", []relational.TupleID{tid(5), tid(3), tid(8)})
	nb := g.Neighbors(tid(5))
	if len(nb) != 2 || nb[0] != tid(3) || nb[1] != tid(8) {
		t.Errorf("neighbors = %v", nb)
	}
	if g.Neighbors(tid(99)) != nil {
		t.Error("missing node should have nil neighbors")
	}
}

// chain builds t1-t2-t3-...-tn as a path.
func chain(n int) *Graph {
	g := New(0, 0)
	for i := 1; i < n; i++ {
		g.AddAnnotation(annotation.ID(fmt.Sprintf("link%d", i)),
			[]relational.TupleID{tid(i), tid(i + 1)})
	}
	return g
}

func TestNeighborhoodBFS(t *testing.T) {
	g := chain(6) // 1-2-3-4-5-6
	nb := g.Neighborhood([]relational.TupleID{tid(1)}, 2)
	if len(nb) != 3 { // 1,2,3
		t.Fatalf("1-hop radius 2 = %v", nb)
	}
	nb = g.Neighborhood([]relational.TupleID{tid(1), tid(6)}, 1)
	if len(nb) != 4 { // 1,2,5,6
		t.Fatalf("multi-source = %v", nb)
	}
	nb = g.Neighborhood([]relational.TupleID{tid(3)}, 0)
	if len(nb) != 1 || nb[0] != tid(3) {
		t.Fatalf("radius 0 = %v", nb)
	}
}

func TestHopsToAny(t *testing.T) {
	g := chain(6)
	d, ok := g.HopsToAny(tid(4), []relational.TupleID{tid(1)})
	if !ok || d != 3 {
		t.Errorf("hops = %d ok=%v", d, ok)
	}
	d, ok = g.HopsToAny(tid(4), []relational.TupleID{tid(1), tid(5)})
	if !ok || d != 1 {
		t.Errorf("multi-focal hops = %d ok=%v", d, ok)
	}
	if d, ok = g.HopsToAny(tid(1), []relational.TupleID{tid(1)}); !ok || d != 0 {
		t.Errorf("self hops = %d ok=%v", d, ok)
	}
	// Disconnected target.
	g.AddAnnotation("island", []relational.TupleID{tid(100), tid(101)})
	if _, ok = g.HopsToAny(tid(100), []relational.TupleID{tid(1)}); ok {
		t.Error("disconnected tuple reported reachable")
	}
}

func TestStability(t *testing.T) {
	// Batch of 2 annotations, μ = 0.5.
	g := New(2, 0.5)
	if g.Stable() {
		t.Error("empty graph should be unstable (no batch closed)")
	}
	// Batch 1: every attachment creates new edges → unstable.
	g.AddAnnotation("a1", []relational.TupleID{tid(1), tid(2)})
	g.AddAnnotation("a2", []relational.TupleID{tid(3), tid(4)})
	if g.BatchesClosed() != 1 {
		t.Fatalf("batches = %d", g.BatchesClosed())
	}
	if g.Stable() {
		t.Error("edge-heavy batch should be unstable")
	}
	// Batch 2: annotations over already-connected tuples → no new edges →
	// stable.
	g.AddAnnotation("a3", []relational.TupleID{tid(1), tid(2)})
	g.AddAnnotation("a4", []relational.TupleID{tid(3), tid(4)})
	if g.BatchesClosed() != 2 {
		t.Fatalf("batches = %d", g.BatchesClosed())
	}
	if !g.Stable() {
		t.Error("no-new-edge batch should be stable")
	}
	// Batch 3: new edges again → unstable again (the flag changes from one
	// batch to another).
	g.AddAnnotation("a5", []relational.TupleID{tid(10), tid(11)})
	g.AddAnnotation("a6", []relational.TupleID{tid(12), tid(13)})
	if g.Stable() {
		t.Error("stability flag should flip back")
	}
}

func TestStabilityDisabled(t *testing.T) {
	g := New(0, 0.5)
	g.AddAnnotation("a1", []relational.TupleID{tid(1), tid(2)})
	if g.Stable() || g.BatchesClosed() != 0 {
		t.Error("stability tracking should be disabled with batchSize 0")
	}
	g.SetStabilityParams(1, 0.5)
	g.AddAnnotation("a2", []relational.TupleID{tid(1), tid(2)})
	if g.BatchesClosed() != 1 {
		t.Error("reconfigured tracker did not run")
	}
	if !g.Stable() {
		t.Error("duplicate-edge batch should be stable")
	}
}

func TestProfile(t *testing.T) {
	p := NewProfile()
	if p.SelectK(0.9, 3) != 3 {
		t.Error("empty profile should return fallback")
	}
	// Reproduce Figure 7's shape: 71% within 2 hops, 93% within 3.
	for i := 0; i < 30; i++ {
		p.Record(1, true)
	}
	for i := 0; i < 41; i++ {
		p.Record(2, true)
	}
	for i := 0; i < 22; i++ {
		p.Record(3, true)
	}
	for i := 0; i < 7; i++ {
		p.Record(4, true)
	}
	if p.Total() != 100 {
		t.Fatalf("total = %d", p.Total())
	}
	if c := p.CoverageAt(2); c != 0.71 {
		t.Errorf("coverage@2 = %f", c)
	}
	if c := p.CoverageAt(3); c != 0.93 {
		t.Errorf("coverage@3 = %f", c)
	}
	if k := p.SelectK(0.71, 0); k != 2 {
		t.Errorf("SelectK(0.71) = %d", k)
	}
	if k := p.SelectK(0.9, 0); k != 3 {
		t.Errorf("SelectK(0.9) = %d", k)
	}
	if k := p.SelectK(1.0, 0); k != 4 {
		t.Errorf("SelectK(1.0) = %d", k)
	}
	if p.MaxHops() != 4 {
		t.Errorf("MaxHops = %d", p.MaxHops())
	}
	if p.Bucket(2) != 41 || p.Bucket(99) != 0 {
		t.Error("Bucket wrong")
	}
}

func TestProfileUnreachable(t *testing.T) {
	p := NewProfile()
	p.Record(1, true)
	p.Record(0, false)
	if p.Unreachable() != 1 || p.Total() != 2 {
		t.Errorf("unreachable=%d total=%d", p.Unreachable(), p.Total())
	}
	// Coverage counts unreachable in the denominator.
	if c := p.CoverageAt(10); c != 0.5 {
		t.Errorf("coverage = %f", c)
	}
	// Unreachable mass prevents hitting 0.9: SelectK returns max observed.
	if k := p.SelectK(0.9, 7); k != 1 {
		t.Errorf("SelectK with unreachable = %d", k)
	}
	// Negative hop clamps to 0.
	p.Record(-5, true)
	if p.Bucket(0) != 1 {
		t.Error("negative hops not clamped")
	}
}

func TestProfileCoverageMonotoneProperty(t *testing.T) {
	p := NewProfile()
	for i := 0; i < 50; i++ {
		p.Record(i%6, i%7 != 0)
	}
	f := func(a, b uint8) bool {
		x, y := int(a%10), int(b%10)
		if x > y {
			x, y = y, x
		}
		return p.CoverageAt(x) <= p.CoverageAt(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveTuple(t *testing.T) {
	g := New(0, 0)
	g.AddAnnotation("a1", []relational.TupleID{tid(1), tid(2), tid(3)})
	g.AddAnnotation("a2", []relational.TupleID{tid(2), tid(4)})
	g.RemoveTuple(tid(2))
	if g.Contains(tid(2)) {
		t.Fatal("tuple still present")
	}
	if w := g.Weight(tid(1), tid(2)); w != 0 {
		t.Errorf("weight to removed tuple = %f", w)
	}
	// Other structure intact: 1-3 still share a1.
	if w := g.Weight(tid(1), tid(3)); w == 0 {
		t.Error("unrelated edge lost")
	}
	for _, n := range g.Neighbors(tid(1)) {
		if n == tid(2) {
			t.Error("removed tuple still a neighbor")
		}
	}
	// byAnn rewired: a2 now only has tid(4); re-attaching a2 to a new
	// tuple must not resurrect edges to tid(2).
	g.AddAttachment("a2", tid(5))
	if g.Weight(tid(5), tid(2)) != 0 {
		t.Error("edge to removed tuple resurrected")
	}
	if g.Weight(tid(5), tid(4)) == 0 {
		t.Error("new attachment edge missing")
	}
	// Removing a missing tuple is a no-op.
	g.RemoveTuple(tid(99))
}

// TestGraphConcurrentReaders runs Neighborhood, PathWeights, HopsToEach
// and AffectedAnnotations from many goroutines against one graph — the
// read-locked discovery pattern — and requires every answer to equal the
// sequential one. Each traversal owns its scratch; run with -race to prove
// none is shared.
func TestGraphConcurrentReaders(t *testing.T) {
	g := New(0, 0)
	for i := 0; i < 200; i++ {
		g.AddAnnotation(annotation.ID(fmt.Sprintf("a%d", i)),
			[]relational.TupleID{tid(i % 60), tid((i * 7) % 60), tid((i * 13) % 61)})
	}
	focal := []relational.TupleID{tid(0), tid(30)}
	targets := []relational.TupleID{tid(5), tid(17), tid(59), tid(60), tid(99)}
	type answer struct {
		nb       []relational.TupleID
		weights  map[relational.TupleID]float64
		hops     []int
		reach    []bool
		affected []annotation.ID
	}
	query := func() answer {
		var a answer
		a.nb = g.Neighborhood(focal, 2)
		a.weights = g.PathWeights(tid(0), 3)
		a.hops, a.reach = g.HopsToEach(targets, focal)
		a.affected = g.AffectedAnnotations(focal, 1)
		return a
	}
	want := query()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if got := query(); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent read diverged: %+v, want %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
