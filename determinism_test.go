package nebula_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"nebula"
	"nebula/internal/keyword"
	"nebula/internal/workload"
)

// detEngine builds a fresh engine over a freshly generated (deterministic)
// dataset, with the given parallelism. Each parallelism level gets its own
// dataset because Process mutates engine state; generation is seeded, so
// the starting states are identical.
func detEngine(t *testing.T, parallelism int, budget nebula.Budget, sharedExec bool) (*nebula.Engine, []*workload.AnnotationSpec) {
	t.Helper()
	ds, err := workload.Generate(workload.TinyConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	opts := nebula.DefaultOptions()
	opts.Bounds = nebula.Bounds{Lower: 0.2, Upper: 0.8}
	opts.Parallelism = parallelism
	opts.Budget = budget
	opts.SharedExecution = sharedExec
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	specs := ds.Workload
	if len(specs) < 6 {
		t.Fatalf("fixture too small: %d workload annotations", len(specs))
	}
	specs = specs[:6]
	for _, spec := range specs {
		if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
			t.Fatal(err)
		}
	}
	return e, specs
}

// renderBatchResults folds batch output into one canonical string:
// candidates with confidences and evidence, outcomes, degradations, and
// errors — everything except the scheduling-only stats fields.
func renderBatchResults(results []nebula.BatchResult) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s err=%v\n", r.ID, r.Err)
		if r.Discovery == nil {
			continue
		}
		for _, c := range r.Discovery.Candidates {
			fmt.Fprintf(&b, "  cand %v conf=%.9f ev=%v\n", c.Tuple.ID, c.Confidence, c.Evidence)
		}
		fmt.Fprintf(&b, "  degraded=%v queries=%d\n", r.Discovery.Degraded(), len(r.Discovery.Queries))
		for _, a := range r.Outcome.Accepted {
			fmt.Fprintf(&b, "  accepted %v v%d\n", a.Tuple, a.VID)
		}
		for _, p := range r.Outcome.Pending {
			fmt.Fprintf(&b, "  pending %v v%d\n", p.Tuple, p.VID)
		}
		for _, rj := range r.Outcome.Rejected {
			fmt.Fprintf(&b, "  rejected %v v%d\n", rj.Tuple, rj.VID)
		}
	}
	return b.String()
}

func detParallelisms() []int {
	ps := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		ps = append(ps, n)
	} else {
		ps = append(ps, 8)
	}
	return ps
}

// TestDiscoverBatchDeterministicAcrossParallelism checks that DiscoverBatch
// output — candidates, confidences, evidence, degradations — is identical
// at parallelism 1, 2, and NumCPU, with shared execution both on and off.
func TestDiscoverBatchDeterministicAcrossParallelism(t *testing.T) {
	for _, sharedExec := range []bool{false, true} {
		var base string
		for _, p := range detParallelisms() {
			e, specs := detEngine(t, p, nebula.Budget{}, sharedExec)
			ids := make([]nebula.AnnotationID, len(specs))
			for i, s := range specs {
				ids[i] = s.Ann.ID
			}
			results := e.DiscoverBatch(ids)
			got := renderBatchResults(results)
			if p == 1 {
				base = got
				continue
			}
			if got != base {
				t.Errorf("shared=%v parallelism=%d: DiscoverBatch output diverged\n--- p=1\n%s--- p=%d\n%s",
					sharedExec, p, base, p, got)
			}
		}
	}
}

// TestProcessBatchDeterministicAcrossParallelism checks the stronger
// property: the full pipeline — including Stage-3 VID assignment, routing,
// and the resulting pending queue — is identical at every parallelism.
func TestProcessBatchDeterministicAcrossParallelism(t *testing.T) {
	var base, basePending string
	for _, p := range detParallelisms() {
		e, specs := detEngine(t, p, nebula.Budget{}, true)
		ids := make([]nebula.AnnotationID, len(specs))
		for i, s := range specs {
			ids[i] = s.Ann.ID
		}
		results := e.ProcessBatch(ids)
		got := renderBatchResults(results)
		var pb strings.Builder
		for _, task := range e.PendingTasks() {
			fmt.Fprintf(&pb, "v%d %s %v %.9f\n", task.VID, task.Annotation, task.Tuple, task.Confidence)
		}
		gotPending := pb.String()
		if p == 1 {
			base, basePending = got, gotPending
			continue
		}
		if got != base {
			t.Errorf("parallelism=%d: ProcessBatch output diverged", p)
		}
		if gotPending != basePending {
			t.Errorf("parallelism=%d: pending verification queue diverged\n--- p=1\n%s--- p=%d\n%s",
				p, basePending, p, gotPending)
		}
	}
}

// TestDiscoverBatchDeterministicUnderBudget checks determinism when the
// scan budget truncates discovery: identical partial candidates and
// identical Degraded reasons at every parallelism.
func TestDiscoverBatchDeterministicUnderBudget(t *testing.T) {
	// Unshared execution: the scan budget is checked before every keyword
	// query, so a 40-row budget truncates after the first (the shared path
	// checks between 16-fingerprint chunks, which the tiny dataset's
	// batches never fill).
	budget := nebula.Budget{MaxSearchedRows: 40}
	var base string
	truncated := false
	for _, p := range detParallelisms() {
		e, specs := detEngine(t, p, budget, false)
		ids := make([]nebula.AnnotationID, len(specs))
		for i, s := range specs {
			ids[i] = s.Ann.ID
		}
		results := e.DiscoverBatch(ids)
		for _, r := range results {
			if r.Discovery != nil && len(r.Discovery.Degraded()) > 0 {
				truncated = true
			}
		}
		got := renderBatchResults(results)
		if p == 1 {
			base = got
			continue
		}
		if got != base {
			t.Errorf("parallelism=%d: budget-truncated output diverged\n--- p=1\n%s--- p=%d\n%s",
				p, base, p, got)
		}
	}
	if !truncated {
		t.Error("budget never truncated a run; the test exercises nothing")
	}
}

// TestBatchMatchesSequentialCalls checks that DiscoverBatch agrees with a
// loop of individual Discover calls — the batch API must be a scheduling
// optimization, not a semantic change.
func TestBatchMatchesSequentialCalls(t *testing.T) {
	e, specs := detEngine(t, 4, nebula.Budget{}, true)
	ids := make([]nebula.AnnotationID, len(specs))
	for i, s := range specs {
		ids[i] = s.Ann.ID
	}
	batch := e.DiscoverBatch(ids)
	for i, id := range ids {
		d, err := e.Discover(id)
		if err != nil {
			t.Fatalf("Discover(%s): %v", id, err)
		}
		single := renderBatchResults([]nebula.BatchResult{{ID: id, Discovery: d}})
		viaBatch := renderBatchResults([]nebula.BatchResult{{ID: id, Discovery: batch[i].Discovery, Err: batch[i].Err}})
		if single != viaBatch {
			t.Errorf("annotation %s: batch result differs from sequential Discover\n--- single\n%s--- batch\n%s",
				id, single, viaBatch)
		}
	}
}

// TestDiscoverBatchUnknownAnnotation checks per-slot failure isolation: an
// unknown ID fails its own slot and leaves its batch-mates untouched.
func TestDiscoverBatchUnknownAnnotation(t *testing.T) {
	e, specs := detEngine(t, 4, nebula.Budget{}, true)
	ids := []nebula.AnnotationID{specs[0].Ann.ID, "no-such-annotation", specs[1].Ann.ID}
	results := e.DiscoverBatch(ids)
	if results[1].Err == nil {
		t.Error("unknown annotation did not error")
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("valid slots poisoned: %v / %v", results[0].Err, results[2].Err)
	}
	if results[0].Discovery == nil || results[2].Discovery == nil {
		t.Error("valid slots missing discoveries")
	}
}

// countingSearcher wraps a keyword searcher and records the most batch
// executions ever in flight at once. The Gosched hands the processor to
// any other ready worker while one execution is in flight, so a fan-out
// wider than GOMAXPROCS shows up as a peak above it.
type countingSearcher struct {
	nebula.KeywordSearcher
	inFlight, peak *atomic.Int32
}

func (c countingSearcher) ExecuteBatchContext(ctx context.Context, qs []keyword.Query, shared bool, lim keyword.Limits) (map[string][]keyword.Result, keyword.ExecStats, error) {
	n := c.inFlight.Add(1)
	defer c.inFlight.Add(-1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	runtime.Gosched()
	return c.KeywordSearcher.ExecuteBatchContext(ctx, qs, shared, lim)
}

// TestDiscoverBatchFanOutRespectsGOMAXPROCS checks that the batch fan-out
// is clamped to GOMAXPROCS like every other worker pool: Parallelism 8
// under GOMAXPROCS=1 must run one discovery at a time.
func TestDiscoverBatchFanOutRespectsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ds, err := workload.Generate(workload.TinyConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	var inFlight, peak atomic.Int32
	opts := nebula.DefaultOptions()
	opts.Parallelism = 8
	opts.SearcherFactory = func(db *nebula.Database) nebula.KeywordSearcher {
		return countingSearcher{KeywordSearcher: keyword.NewEngine(db, ds.Meta), inFlight: &inFlight, peak: &peak}
	}
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ids []nebula.AnnotationID
	for _, spec := range ds.Workload[:6] {
		if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, spec.Ann.ID)
	}
	for _, r := range e.DiscoverBatch(ids) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
	}
	if got := peak.Load(); got != 1 {
		t.Errorf("peak executions in flight = %d under GOMAXPROCS=1, want 1", got)
	}
}
