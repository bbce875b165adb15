package acg

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nebula/internal/annotation"
	"nebula/internal/relational"
)

// TestGraphRandomInvariants drives the graph and the map-based reference
// (refGraph) through a random sequence of AddAnnotation, AddAttachment,
// RemoveAttachment and RemoveTuple. After every step the two must agree on
// every query (checkAgainstReference); every 20 steps the structural
// invariants are checked as well:
//
//  1. Weight(a,b) > 0 iff a and b share at least one annotation.
//  2. Weight is symmetric and within (0, 1].
//  3. Neighbors lists exactly the positive-weight partners.
//  4. Every tuple of every annotation is a node.
func TestGraphRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := New(0, 0)
	ref := newRefGraph()
	tup := func(i int) relational.TupleID {
		return relational.TupleID{Table: "T", Key: fmt.Sprintf("s:%d", i)}
	}
	const nTup = 30
	attached := map[annotation.ID]map[relational.TupleID]struct{}{}
	var ids []annotation.ID // creation order, so picks are deterministic
	var cov refCoverage

	for step := 0; step < 600; step++ {
		switch r := rng.Intn(10); {
		case r < 3 || len(ids) == 0:
			id := annotation.ID(fmt.Sprintf("a%d", step))
			n := 1 + rng.Intn(3)
			var tuples []relational.TupleID
			set := map[relational.TupleID]struct{}{}
			for len(set) < n {
				tu := tup(rng.Intn(nTup))
				if _, dup := set[tu]; !dup {
					set[tu] = struct{}{}
					tuples = append(tuples, tu)
				}
			}
			g.AddAnnotation(id, tuples)
			ref.AddAnnotation(id, tuples)
			attached[id] = set
			ids = append(ids, id)
		case r < 6:
			id, tu := ids[rng.Intn(len(ids))], tup(rng.Intn(nTup))
			g.AddAttachment(id, tu)
			ref.AddAttachment(id, tu)
			attached[id][tu] = struct{}{}
		case r < 9:
			id, tu := ids[rng.Intn(len(ids))], tup(rng.Intn(nTup))
			if got, want := g.RemoveAttachment(id, tu), ref.RemoveAttachment(id, tu); got != want {
				t.Fatalf("step %d: RemoveAttachment(%s,%v) = %v, reference %v", step, id, tu, got, want)
			}
			delete(attached[id], tu)
		default:
			tu := tup(rng.Intn(nTup))
			g.RemoveTuple(tu)
			ref.RemoveTuple(tu)
			for _, set := range attached {
				delete(set, tu)
			}
		}
		checkAgainstReference(t, rng, g, ref, nTup, step, &cov)
		if step%20 == 0 {
			checkGraphInvariants(t, g, attached, nTup, step)
		}
	}
	checkGraphInvariants(t, g, attached, nTup, 600)
	// The sequence must have exercised every HopsToEach case.
	if cov.inFocal == 0 || cov.outsideFocal == 0 || cov.reachable == 0 || cov.unreachable == 0 || cov.duplicate == 0 {
		t.Fatalf("hop cases not all exercised: %+v", cov)
	}
}

// refCoverage counts the HopsToEach cases a random run exercised.
type refCoverage struct {
	inFocal      int // target is a focal tuple
	outsideFocal int // focal tuple outside the graph
	reachable    int // reached by traversal
	unreachable  int
	duplicate    int // target repeated in one call
}

// checkAgainstReference asserts that the graph answers exactly like the
// map-based reference: node and edge counts, AttachmentList (attachment
// order included), HopsToEach/HopsToAny on random focal and target sets
// (duplicates, focal members, tuples outside the graph, unreachable
// tuples), Neighborhood, AffectedAnnotations, Neighbors, and Weight and
// PathWeights bit for bit.
func checkAgainstReference(t *testing.T, rng *rand.Rand, g *Graph, ref *refGraph, nTup, step int, cov *refCoverage) {
	t.Helper()
	universe := make([]relational.TupleID, nTup+3)
	for i := range universe {
		universe[i] = relational.TupleID{Table: "T", Key: fmt.Sprintf("s:%d", i)}
	}
	if g.Nodes() != ref.Nodes() || g.Edges() != ref.Edges() {
		t.Fatalf("step %d: nodes/edges %d/%d, reference %d/%d", step, g.Nodes(), g.Edges(), ref.Nodes(), ref.Edges())
	}
	if got, want := g.AttachmentList(), ref.AttachmentList(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: AttachmentList %v, reference %v", step, got, want)
	}
	// Tuples nTup..nTup+2 are never attached: always outside the graph.
	pick := func() relational.TupleID { return universe[rng.Intn(len(universe))] }
	for trial := 0; trial < 4; trial++ {
		focal := make([]relational.TupleID, 1+rng.Intn(3))
		for i := range focal {
			focal[i] = pick()
		}
		targets := make([]relational.TupleID, rng.Intn(7))
		for i := range targets {
			targets[i] = pick()
		}
		if rng.Intn(2) == 0 {
			targets = append(targets, focal[rng.Intn(len(focal))])
		}
		if len(targets) > 0 && rng.Intn(2) == 0 {
			targets = append(targets, targets[0])
			cov.duplicate++
		}
		hops, reachable := g.HopsToEach(targets, focal)
		for i, tg := range targets {
			wantHops, wantOK := ref.HopsToAny(tg, focal)
			if hops[i] != wantHops || reachable[i] != wantOK {
				t.Fatalf("step %d: HopsToEach(%v)[%d] for %v = %d,%v, reference %d,%v", step, focal, i, tg, hops[i], reachable[i], wantHops, wantOK)
			}
			if d, ok := g.HopsToAny(tg, focal); d != wantHops || ok != wantOK {
				t.Fatalf("step %d: HopsToAny(%v, %v) = %d,%v, reference %d,%v", step, tg, focal, d, ok, wantHops, wantOK)
			}
			switch {
			case slices.Contains(focal, tg):
				cov.inFocal++
			case wantOK:
				cov.reachable++
			default:
				cov.unreachable++
			}
		}
		for _, f := range focal {
			if !g.Contains(f) {
				cov.outsideFocal++
			}
		}
		k := rng.Intn(5) - 1 // -1: unbounded
		if got, want := g.Neighborhood(focal, k), ref.Neighborhood(focal, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Neighborhood(%v, %d) = %v, reference %v", step, focal, k, got, want)
		}
		if got, want := g.AffectedAnnotations(focal, k), ref.AffectedAnnotations(focal, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: AffectedAnnotations(%v, %d) = %v, reference %v", step, focal, k, got, want)
		}
	}
	for _, a := range universe {
		if got, want := g.Neighbors(a), ref.Neighbors(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Neighbors(%v) = %v, reference %v", step, a, got, want)
		}
		for _, b := range universe {
			if got, want := g.Weight(a, b), ref.Weight(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: Weight(%v,%v) = %v, reference %v", step, a, b, got, want)
			}
		}
	}
	for trial := 0; trial < 6; trial++ {
		a := pick()
		for hops := 0; hops <= 3; hops++ {
			got, want := g.PathWeights(a, hops), ref.PathWeights(a, hops)
			if (got == nil) != (want == nil) || len(got) != len(want) {
				t.Fatalf("step %d: PathWeights(%v, %d) = %v, reference %v", step, a, hops, got, want)
			}
			for tu, w := range want {
				if gw, ok := got[tu]; !ok || math.Float64bits(gw) != math.Float64bits(w) {
					t.Fatalf("step %d: PathWeights(%v, %d)[%v] = %v, reference %v", step, a, hops, tu, gw, w)
				}
			}
		}
	}
}

func checkGraphInvariants(t *testing.T, g *Graph, attached map[annotation.ID]map[relational.TupleID]struct{}, nTup, step int) {
	t.Helper()
	tup := func(i int) relational.TupleID {
		return relational.TupleID{Table: "T", Key: fmt.Sprintf("s:%d", i)}
	}
	shares := func(a, b relational.TupleID) bool {
		for _, set := range attached {
			_, hasA := set[a]
			_, hasB := set[b]
			if hasA && hasB {
				return true
			}
		}
		return false
	}
	for i := 0; i < nTup; i++ {
		for j := 0; j < nTup; j++ {
			if i == j {
				continue
			}
			a, b := tup(i), tup(j)
			w := g.Weight(a, b)
			if w != g.Weight(b, a) {
				t.Fatalf("step %d: asymmetric weight", step)
			}
			if shares(a, b) {
				if w <= 0 || w > 1 {
					t.Fatalf("step %d: sharing tuples %v,%v have weight %f", step, a, b, w)
				}
			} else if w != 0 {
				t.Fatalf("step %d: non-sharing tuples %v,%v have weight %f", step, a, b, w)
			}
		}
		// Neighbors are exactly the positive-weight partners.
		nb := g.Neighbors(tup(i))
		seen := map[relational.TupleID]bool{}
		for _, n := range nb {
			seen[n] = true
			if g.Weight(tup(i), n) <= 0 {
				t.Fatalf("step %d: neighbor with zero weight", step)
			}
		}
		for j := 0; j < nTup; j++ {
			if j != i && g.Weight(tup(i), tup(j)) > 0 && !seen[tup(j)] {
				t.Fatalf("step %d: positive-weight partner missing from Neighbors", step)
			}
		}
	}
	// Every attached tuple is a node.
	for id, set := range attached {
		for tu := range set {
			if !g.Contains(tu) {
				t.Fatalf("step %d: tuple %v of %s not a node", step, tu, id)
			}
		}
	}
}

// TestNeighborhoodSubsetProperty: Neighborhood(f, k) ⊆ Neighborhood(f, k+1),
// and every member's HopsToAny distance is ≤ k.
func TestNeighborhoodSubsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := New(0, 0)
	tup := func(i int) relational.TupleID {
		return relational.TupleID{Table: "T", Key: fmt.Sprintf("s:%d", i)}
	}
	for i := 0; i < 60; i++ {
		g.AddAnnotation(annotation.ID(fmt.Sprintf("a%d", i)),
			[]relational.TupleID{tup(rng.Intn(30)), tup(rng.Intn(30))})
	}
	focal := []relational.TupleID{tup(0), tup(17)}
	prev := map[relational.TupleID]bool{}
	for k := 0; k <= 5; k++ {
		cur := g.Neighborhood(focal, k)
		curSet := map[relational.TupleID]bool{}
		for _, tu := range cur {
			curSet[tu] = true
			if d, ok := g.HopsToAny(tu, focal); !ok || d > k {
				t.Fatalf("K=%d contains tuple at distance %d (ok=%v)", k, d, ok)
			}
		}
		for tu := range prev {
			if !curSet[tu] {
				t.Fatalf("K=%d lost tuple %v from K-1", k, tu)
			}
		}
		prev = curSet
	}
}
