package nebula

import (
	"context"
	"fmt"
	"runtime/debug"

	"nebula/internal/pool"
)

// BatchResult is the outcome of one annotation inside a batch call. Every
// input ID yields exactly one BatchResult, at the same index; failures are
// per-annotation, never batch-wide.
type BatchResult struct {
	// ID is the annotation the result belongs to.
	ID AnnotationID
	// Discovery is the (possibly partial) discovery output; nil when the
	// annotation failed before discovery produced anything.
	Discovery *Discovery
	// Outcome is the Stage-3 verification routing (ProcessBatch only; zero
	// for DiscoverBatch and for annotations whose discovery errored).
	Outcome VerificationOutcome
	// Err is the annotation's error: typed ErrCancelled/ErrBudgetExceeded/
	// ErrSpamAnnotation with partial results attached, ErrInternal for a
	// recovered worker panic, or nil.
	Err error
}

// DiscoverBatch runs discovery for a set of stored annotations, fanning the
// independent runs across the engine's worker pool (Options.Parallelism).
// Results align with the input order and are byte-identical to calling
// Discover sequentially — parallelism changes scheduling, never output.
func (e *Engine) DiscoverBatch(ids []AnnotationID) []BatchResult {
	return e.DiscoverBatchRequest(context.Background(), ids, RequestOptions{})
}

// DiscoverBatchRequest is DiscoverBatch under governance, with
// RequestOptions overlaying the engine's budget and parallelism. On
// cancellation the pool drains: in-flight annotations finish (returning
// their partial Discovery with ErrCancelled), not-yet-started ones report
// the context's error without running. A panic inside one worker poisons
// only that annotation's result (ErrInternal), never its batch-mates. The
// batch is read-only against engine state, so it holds the engine's read
// lock and runs concurrently with other discover requests and snapshot
// captures. An invalid request poisons every slot with the validation
// error rather than silently running unbounded.
func (e *Engine) DiscoverBatchRequest(ctx context.Context, ids []AnnotationID, req RequestOptions) []BatchResult {
	if err := req.Validate(); err != nil {
		return batchError(ids, err)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.runBatch(ctx, ids, false, req.apply(e.opts))
}

// batchError fills one BatchResult per input with the same error.
func batchError(ids []AnnotationID, err error) []BatchResult {
	results := make([]BatchResult, len(ids))
	for i, id := range ids {
		results[i] = BatchResult{ID: id, Err: err}
	}
	return results
}

// ProcessBatch runs the full pipeline for a set of stored annotations:
// discovery fans out across the worker pool, then Stage-3 verification
// routing runs sequentially in input order — so VIDs, ACG updates, and
// pending-task order are identical to calling Process in a loop.
func (e *Engine) ProcessBatch(ids []AnnotationID) []BatchResult {
	return e.ProcessBatchRequest(context.Background(), ids, RequestOptions{})
}

// ProcessBatchRequest is ProcessBatch under governance; see
// DiscoverBatchRequest for the cancellation and panic-isolation contract.
// An annotation whose discovery errors (cancellation, budget, spam, panic)
// is not submitted to verification, exactly as ProcessRequest would.
// Stage 3 mutates engine state, so the whole batch holds the engine lock
// exclusively (unlike DiscoverBatchRequest).
func (e *Engine) ProcessBatchRequest(ctx context.Context, ids []AnnotationID, req RequestOptions) []BatchResult {
	if err := req.Validate(); err != nil {
		return batchError(ids, err)
	}
	e.mu.Lock()
	wb := e.wal
	results := e.runBatch(ctx, ids, true, req.apply(e.opts))
	e.mu.Unlock()
	if err := wb.commit(nil); err != nil {
		// The group fsync covering every logged submission failed; no slot
		// may acknowledge a durable routing.
		for i := range results {
			if results[i].Err == nil {
				results[i].Err = err
				results[i].Outcome = VerificationOutcome{}
			}
		}
	}
	return results
}

// runBatch is the shared batch core. Callers hold e.mu for the whole batch
// — in read mode for discover-only batches, exclusively when process is
// set: the discovery phase is read-only against the engine state
// (annotation lookups happen before fan-out, the symbol index is pre-built
// below), so the runs are safe to execute concurrently under the one lock;
// the verification phase mutates state and runs sequentially in input
// order.
func (e *Engine) runBatch(ctx context.Context, ids []AnnotationID, process bool, opts Options) []BatchResult {
	results := make([]BatchResult, len(ids))
	type input struct {
		a     *Annotation
		focal []TupleID
	}
	inputs := make([]input, len(ids))
	for i, id := range ids {
		results[i].ID = id
		a, ok := e.store.Get(id)
		if !ok {
			results[i].Err = fmt.Errorf("%w %q", ErrUnknownAnnotation, id)
			continue
		}
		inputs[i] = input{a: a, focal: e.store.Focal(id)}
	}
	// The symbol-table technique builds its full-database index lazily on
	// first use; build it before fan-out so workers only read it.
	if opts.SearcherFactory == nil && opts.SearchTechnique == TechniqueSymbolTable {
		e.symbolSearcher(e.db)
	}

	workers := resolveWorkers(opts.Parallelism)
	started := make([]bool, len(ids))
	pool.Run(ctx, len(ids), workers, func(i int) {
		if inputs[i].a == nil {
			return
		}
		started[i] = true
		defer func() {
			if r := recover(); r != nil {
				results[i].Err = fmt.Errorf("%w: panic: %v\n%s", ErrInternal, r, debug.Stack())
			}
		}()
		results[i].Discovery, results[i].Err = e.discover(ctx, inputs[i].a, inputs[i].focal, opts, !process)
	})
	for i := range results {
		if inputs[i].a != nil && !started[i] {
			// The pool drained on cancellation before this annotation ran.
			results[i].Err = wrapBatchCtxErr(ctx.Err())
		}
	}
	if !process {
		return results
	}
	// Stage 3, sequentially in input order: Submit mutates the store, the
	// ACG, and the hop profile, and assigns VIDs — input order keeps every
	// one of those deterministic whatever the discovery schedule was.
	for i := range results {
		if results[i].Err != nil || inputs[i].a == nil {
			continue
		}
		disc := results[i].Discovery
		degraded := len(disc.Degraded()) > 0
		submit := e.manager.Submit
		if degraded {
			submit = e.manager.SubmitDegraded
		}
		// Log the computed routing before applying it, exactly like the
		// single-annotation Process path; an append failure poisons only
		// this slot.
		if err := e.walAppend(recSubmit(ids[i], disc, degraded, e.manager.NextVID())); err != nil {
			results[i].Err = err
			continue
		}
		e.bumpMutEpochFor(ids[i])
		outcome, err := submit(ids[i], disc.Focal, disc.Candidates)
		if err != nil {
			results[i].Err = err
			continue
		}
		results[i].Outcome = outcome
	}
	return results
}

// wrapBatchCtxErr types a context error for a batch slot that never ran.
func wrapBatchCtxErr(err error) error {
	switch err {
	case context.Canceled:
		return fmt.Errorf("%w: %v", ErrCancelled, err)
	case context.DeadlineExceeded:
		return fmt.Errorf("%w: %v", ErrBudgetExceeded, err)
	case nil:
		return fmt.Errorf("%w: batch slot skipped", ErrCancelled)
	default:
		return fmt.Errorf("%w: %v", ErrCancelled, err)
	}
}
