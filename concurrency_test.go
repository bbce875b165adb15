package nebula_test

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"nebula"
	"nebula/internal/workload"
)

// TestConcurrentEngineUse exercises the engine from many goroutines at
// once: inserting annotations, processing them, querying with propagation,
// listing/resolving pending tasks, and snapshotting. Run with -race.
func TestConcurrentEngineUse(t *testing.T) {
	opts := nebula.DefaultOptions()
	opts.Bounds = nebula.Bounds{Lower: 0.2, Upper: 0.8}
	e, ds := engineFixture(t, opts)

	specs := ds.WorkloadSet(500, workload.RefClass{})
	if len(specs) < 8 {
		t.Fatalf("fixture too small: %d specs", len(specs))
	}
	specs = specs[:8]

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Writers: insert + process annotations.
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec *workload.AnnotationSpec) {
			defer wg.Done()
			if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
				errs <- fmt.Errorf("add %d: %w", i, err)
				return
			}
			if _, _, err := e.Process(spec.Ann.ID); err != nil {
				errs <- fmt.Errorf("process %d: %w", i, err)
			}
		}(i, spec)
	}
	// Readers: propagation queries and pending listings.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				if _, err := e.PropagateQuery(nebula.StructuredQuery{Table: "Gene"}, nil); err != nil {
					errs <- err
					return
				}
				_ = e.PendingTasks()
				_ = e.Bounds()
			}
		}()
	}
	// Expert: keeps resolving whatever is pending.
	wg.Add(1)
	go func() {
		defer wg.Done()
		oracle := nebula.IdealOracle(ds.Ideal)
		for k := 0; k < 20; k++ {
			for _, spec := range specs {
				if _, _, err := e.ResolveWithOracle(spec.Ann.ID, oracle); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Sanity: state is coherent afterwards.
	if e.Store().Len() == 0 || e.Graph().Nodes() == 0 {
		t.Error("engine state lost")
	}
}

// TestConcurrentBatchUse drives the parallel batch APIs from many
// goroutines at once — disjoint ProcessBatch slices, DiscoverBatch
// readers, snapshot writers, pending listings — on an engine with a
// worker pool (Parallelism = 4). Run with -race. Afterwards the pending
// queue must be exactly the union of the per-batch outcomes: no lost
// tasks, no duplicates, every VID unique.
func TestConcurrentBatchUse(t *testing.T) {
	opts := nebula.DefaultOptions()
	opts.Bounds = nebula.Bounds{Lower: 0.2, Upper: 0.8}
	opts.Parallelism = 4
	e, ds := engineFixture(t, opts)

	specs := ds.WorkloadSet(500, workload.RefClass{})
	if len(specs) < 8 {
		t.Fatalf("fixture too small: %d specs", len(specs))
	}
	specs = specs[:8]
	for i, spec := range specs {
		if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	var mu sync.Mutex
	var outcomes []nebula.BatchResult

	// Processors: each owns a disjoint half of the workload.
	for lo := 0; lo < len(specs); lo += 4 {
		hi := lo + 4
		wg.Add(1)
		go func(part []*workload.AnnotationSpec) {
			defer wg.Done()
			ids := make([]nebula.AnnotationID, len(part))
			for i, s := range part {
				ids[i] = s.Ann.ID
			}
			results := e.ProcessBatch(ids)
			for _, r := range results {
				if r.Err != nil {
					errs <- fmt.Errorf("process %s: %w", r.ID, r.Err)
				}
			}
			mu.Lock()
			outcomes = append(outcomes, results...)
			mu.Unlock()
		}(specs[lo:hi])
	}
	// Rediscoverers: read-only batch discovery racing the processors.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := []nebula.AnnotationID{specs[0].Ann.ID, specs[5].Ann.ID}
			for k := 0; k < 5; k++ {
				for _, r := range e.DiscoverBatch(ids) {
					if r.Err != nil {
						errs <- fmt.Errorf("discover %s: %w", r.ID, r.Err)
						return
					}
				}
			}
		}()
	}
	// Snapshotter and pending readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 5; k++ {
			if err := e.SaveSnapshot(io.Discard); err != nil {
				errs <- fmt.Errorf("snapshot: %w", err)
				return
			}
			_ = e.PendingTasks()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Consistency: the queue holds exactly the tasks the batches reported
	// pending (order-insensitive; interleaving may vary VID assignment).
	want := 0
	seen := make(map[int64]bool)
	for _, r := range outcomes {
		want += len(r.Outcome.Pending)
		for _, p := range r.Outcome.Pending {
			if seen[p.VID] {
				t.Errorf("VID %d assigned twice", p.VID)
			}
			seen[p.VID] = true
		}
	}
	tasks := e.PendingTasks()
	if len(tasks) != want {
		t.Errorf("pending queue has %d tasks, batches reported %d", len(tasks), want)
	}
	for _, task := range tasks {
		if !seen[task.VID] {
			t.Errorf("queued VID %d missing from batch outcomes", task.VID)
		}
	}
}

// TestGraphConcurrentDiscoverBatch runs parallel DiscoverBatch calls —
// each fanned across workers — against one engine whose discoveries walk
// the ACG: spreading (Neighborhood) and multi-hop focal adjustment
// (PathWeights), with the cache off so every run traverses. Every run must
// render exactly like a sequential one. Run with -race: the traversals
// share the graph but no scratch.
func TestGraphConcurrentDiscoverBatch(t *testing.T) {
	opts := nebula.DefaultOptions()
	opts.Spreading = true
	opts.SpreadingK = 2
	opts.AdjustmentHops = 3
	opts.Parallelism = 4
	opts.Cache = nebula.CacheConfig{Disabled: true}
	e, ds := engineFixture(t, opts)
	specs := ds.WorkloadSet(500, workload.RefClass{})
	if len(specs) < 6 {
		t.Fatalf("fixture too small: %d specs", len(specs))
	}
	ids := make([]nebula.AnnotationID, 6)
	for i, spec := range specs[:6] {
		if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		ids[i] = spec.Ann.ID
	}
	render := func(results []nebula.BatchResult) (string, error) {
		var b strings.Builder
		for _, r := range results {
			if r.Err != nil {
				return "", fmt.Errorf("discover %s: %w", r.ID, r.Err)
			}
			fmt.Fprintf(&b, "%s %s\n", r.ID, renderDiscovery(r.Discovery))
		}
		return b.String(), nil
	}
	want, err := render(e.DiscoverBatch(ids))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				got, err := render(e.DiscoverBatch(ids))
				if err != nil {
					t.Error(err)
					return
				}
				if got != want {
					t.Errorf("concurrent DiscoverBatch diverged:\n%s\nwant:\n%s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentRequestOptions races read-locked DiscoverRequest calls with
// different per-request governance overlays against snapshot captures. The
// overlay is applied per call, never written back: the engine's configured
// options must be untouched afterwards, and runs with identical overlays
// must produce identical candidate sets whatever interleaving occurred.
// Run with -race.
func TestConcurrentRequestOptions(t *testing.T) {
	e, ds := engineFixture(t, nebula.DefaultOptions())
	specs := ds.WorkloadSet(500, workload.RefClass{})
	if len(specs) < 2 {
		t.Fatalf("fixture too small: %d specs", len(specs))
	}
	for i, spec := range specs[:2] {
		if err := e.AddAnnotation(spec.Ann, spec.Focal(1)); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	id := specs[0].Ann.ID
	before := e.Options()

	render := func(d *nebula.Discovery) string {
		var b strings.Builder
		for _, c := range d.Candidates {
			fmt.Fprintf(&b, "%v=%.9f;", c.Tuple.ID, c.Confidence)
		}
		return b.String()
	}
	baseline, err := e.DiscoverRequest(context.Background(), id, nebula.RequestOptions{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	truncated, err := e.DiscoverRequest(context.Background(), id, nebula.RequestOptions{MaxCandidates: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(truncated.Candidates) > 1 {
		t.Errorf("MaxCandidates=1 overlay returned %d candidates", len(truncated.Candidates))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := nebula.RequestOptions{MaxCandidates: 3, Parallelism: 1 + g%3}
			for k := 0; k < 5; k++ {
				d, err := e.DiscoverRequest(context.Background(), id, req)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
				if got := render(d); got != render(baseline) {
					errs <- fmt.Errorf("goroutine %d: overlay run diverged: %q vs %q", g, got, render(baseline))
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 5; k++ {
			if err := e.SaveSnapshot(io.Discard); err != nil {
				errs <- fmt.Errorf("snapshot: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Per-request overlays must never leak into the engine's options.
	after := e.Options()
	if after.Budget != before.Budget || after.Parallelism != before.Parallelism {
		t.Errorf("engine options mutated by request overlays: before %+v/%d, after %+v/%d",
			before.Budget, before.Parallelism, after.Budget, after.Parallelism)
	}
}
