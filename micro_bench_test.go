package nebula_test

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/bench"
	"nebula/internal/discovery"
	"nebula/internal/keyword"
	"nebula/internal/relational"
	"nebula/internal/sigmap"
	"nebula/internal/verification"
	"nebula/internal/workload"
)

// Micro-benchmarks for the individual substrates, complementing the
// figure-level benchmarks in bench_test.go. Run with -benchmem to see the
// allocation profiles.

func microDataset(b *testing.B) *workload.Dataset {
	b.Helper()
	env, err := bench.LoadEnv("small", 42)
	if err != nil {
		b.Fatal(err)
	}
	return env.Dataset
}

// BenchmarkRelationalIndexedSelect measures a hash-indexed point query.
func BenchmarkRelationalIndexedSelect(b *testing.B) {
	ds := microDataset(b)
	q := relational.Query{Table: "Gene", Predicates: []relational.Predicate{
		{Column: "GID", Op: relational.OpEq, Operand: relational.String("JW00042")},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.DB.Select(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelationalScanSelect measures a non-indexed column scan.
func BenchmarkRelationalScanSelect(b *testing.B) {
	ds := microDataset(b)
	q := relational.Query{Table: "Gene", Predicates: []relational.Predicate{
		{Column: "Name", Op: relational.OpEq, Operand: relational.String("aabX")},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.DB.Select(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelationalSharedScan measures the batched-scan path of
// SelectMulti with 8 same-column scan queries.
func BenchmarkRelationalSharedScan(b *testing.B) {
	ds := microDataset(b)
	queries := make([]relational.Query, 8)
	for i := range queries {
		queries[i] = relational.Query{Table: "Gene", Predicates: []relational.Predicate{
			{Column: "Name", Op: relational.OpEq,
				Operand: relational.String(fmt.Sprintf("aa%cX", 'a'+i))},
		}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.DB.SelectMulti(queries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSigmapGenerate measures Stage-1 query generation on an L^500
// annotation.
func BenchmarkSigmapGenerate(b *testing.B) {
	ds := microDataset(b)
	spec := ds.WorkloadSet(500, workload.RefClass{})[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := sigmap.NewGenerator(ds.Meta, 0.6)
		gen.Generate(spec.Ann.Body)
	}
}

// BenchmarkKeywordExecute measures one hinted Type-2 query through the
// metadata engine.
func BenchmarkKeywordExecute(b *testing.B) {
	ds := microDataset(b)
	engine := keyword.NewEngine(ds.DB, ds.Meta)
	q := keyword.Query{ID: "q", Weight: 1, Keywords: []keyword.Keyword{
		{Text: "gene", Role: keyword.RoleTable, TargetTable: "Gene", Weight: 1},
		{Text: "JW00042", Role: keyword.RoleValue, TargetTable: "Gene", TargetColumn: "GID", Weight: 0.9},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := engine.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymbolTableBuild measures the pre-processing pass of the
// index-first technique over D_small.
func BenchmarkSymbolTableBuild(b *testing.B) {
	ds := microDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keyword.NewSymbolTableEngine(ds.DB)
	}
}

// BenchmarkACGNeighborhood measures the K=3 BFS + sort used by the
// spreading search.
func BenchmarkACGNeighborhood(b *testing.B) {
	ds := microDataset(b)
	spec := ds.WorkloadSet(100, workload.RefClass{})[0]
	focal := spec.Focal(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.Graph.Neighborhood(focal, 3)
	}
}

// BenchmarkSubsetMaterialize measures miniDB materialization for a K=3
// neighborhood.
func BenchmarkSubsetMaterialize(b *testing.B) {
	ds := microDataset(b)
	spec := ds.WorkloadSet(100, workload.RefClass{})[0]
	ids := ds.Graph.Neighborhood(spec.Focal(1), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.DB.Subset(ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkACGPathWeights measures the multi-hop focal adjustment's
// strongest-shortest-path computation.
func BenchmarkACGPathWeights(b *testing.B) {
	ds := microDataset(b)
	spec := ds.WorkloadSet(100, workload.RefClass{})[0]
	source := spec.Focal(1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.Graph.PathWeights(source, 3)
	}
}

// BenchmarkACGHopsToEach measures the Stage-3 hop search of one acceptance
// batch: a workload annotation's hidden related tuples against its focal,
// cycling through the workload. acg_MB is the heap the D_small ACG holds.
func BenchmarkACGHopsToEach(b *testing.B) {
	ds := microDataset(b)
	specs := ds.WorkloadSet(100, workload.RefClass{})
	heap := acgHeapMB(ds.Graph)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := specs[i%len(specs)]
		ds.Graph.HopsToEach(spec.Hidden(1), spec.Focal(1))
	}
	b.ReportMetric(heap, "acg_MB")
}

// acgHeapMB measures the live heap of a graph rebuilt from g's attachment
// list (tuple IDs are shared with the list, as the engine's graph shares
// them with the database).
func acgHeapMB(g *acg.Graph) float64 {
	list := g.AttachmentList()
	ids := make([]annotation.ID, 0, len(list))
	for id := range list {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rebuilt := acg.New(0, 0)
	for _, id := range ids {
		rebuilt.AddAnnotation(id, list[id])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rebuilt)
	return float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
}

// BenchmarkSubmitAccept measures Stage 3 for auto-accepted candidates:
// Manager.Submit of a workload annotation's hidden related tuples at
// confidence 1 — the hop-profile search, the attachments and the ACG
// updates. Each iteration submits a fresh annotation already attached to
// its focal (the state Process finds). Submit mutates the dataset, so this
// runs on a private copy of microDataset.
func BenchmarkSubmitAccept(b *testing.B) {
	env, err := bench.FreshEnv("small", 42)
	if err != nil {
		b.Fatal(err)
	}
	ds := env.Dataset
	specs := ds.WorkloadSet(100, workload.RefClass{})
	cands := make([][]discovery.Candidate, len(specs))
	for j, spec := range specs {
		for _, t := range spec.Hidden(1) {
			row, ok := ds.DB.Lookup(t)
			if !ok {
				b.Fatalf("related tuple %v not in the database", t)
			}
			cands[j] = append(cands[j], discovery.Candidate{Tuple: row, Confidence: 1})
		}
	}
	m, err := verification.NewManager(ds.Store, ds.Graph, acg.NewProfile(), verification.Bounds{Lower: 0.32, Upper: 0.86})
	if err != nil {
		b.Fatal(err)
	}
	heap := acgHeapMB(ds.Graph)
	ids := make([]annotation.ID, b.N)
	for i := range ids {
		spec := specs[i%len(specs)]
		ids[i] = annotation.ID(fmt.Sprintf("bench-submit-%d", i))
		if err := ds.Store.Add(&annotation.Annotation{ID: ids[i], Body: spec.Ann.Body}); err != nil {
			b.Fatal(err)
		}
		for _, f := range spec.Focal(1) {
			if _, err := ds.Store.Attach(annotation.Attachment{Annotation: ids[i], Tuple: f, Type: annotation.TrueAttachment}); err != nil {
				b.Fatal(err)
			}
		}
		ds.Graph.AddAnnotation(ids[i], spec.Focal(1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := specs[i%len(specs)]
		out, err := m.Submit(ids[i], spec.Focal(1), cands[i%len(specs)])
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Accepted) != len(cands[i%len(specs)]) {
			b.Fatalf("accepted %d of %d candidates", len(out.Accepted), len(cands[i%len(specs)]))
		}
	}
	b.ReportMetric(heap, "acg_MB")
}

// BenchmarkProfileRecord measures hop-profile updates.
func BenchmarkProfileRecord(b *testing.B) {
	p := acg.NewProfile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Record(i%6, i%17 != 0)
	}
}
