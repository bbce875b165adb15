package keyword

import (
	"context"
	"fmt"

	"nebula/internal/meta"
	"nebula/internal/pool"
	"nebula/internal/relational"
	"nebula/internal/trace"
)

// Engine executes keyword queries against a database using NebulaMeta for
// keyword-to-schema mapping.
type Engine struct {
	db   *relational.Database
	meta *meta.Repository

	// MaxMappingsPerKeyword caps candidate interpretations per keyword.
	MaxMappingsPerKeyword int
	// MaxConfigurations caps configurations per query.
	MaxConfigurations int
	// MinMappingWeight discards keyword interpretations weaker than this
	// when deriving mappings from metadata (hinted mappings are exempt).
	MinMappingWeight float64
	// IncludeRelated, when set, expands each matched tuple with its direct
	// FK–PK neighbors at RelatedDiscount of the tuple's confidence.
	IncludeRelated bool
	// RelatedDiscount is the confidence multiplier for related tuples.
	RelatedDiscount float64
	// Cache, when non-nil, memoizes structured-query results and mapper
	// weights across batches. The discovery layer attaches its shared
	// QueryCache here — only for searches over the full database, never
	// for a focal-spreading miniDB.
	Cache *QueryCache
	// Uncached disables all result caching for this engine's executions,
	// including the database's scan cache. Set under scan budgets (budget
	// truncation points depend on actual scan counts) and per-request
	// cache opt-out.
	Uncached bool
}

// NewEngine builds a keyword search engine over db. The repository supplies
// the metadata; it may be bound to a different (larger) database with the
// same schema — the focal-spreading search exploits exactly that by running
// the engine over a miniDB while keeping the full database's metadata.
func NewEngine(db *relational.Database, repo *meta.Repository) *Engine {
	return &Engine{
		db:                    db,
		meta:                  repo,
		MaxMappingsPerKeyword: 3,
		MaxConfigurations:     16,
		MinMappingWeight:      0.3,
		RelatedDiscount:       0.4,
	}
}

// Database returns the engine's bound database.
func (e *Engine) Database() *relational.Database { return e.db }

// Execute runs one keyword query: it enumerates configurations, executes
// each configuration's structured query, and returns the union of produced
// tuples. A tuple satisfying several configurations keeps the highest
// confidence (the engine's "internal criteria", §6.1).
func (e *Engine) Execute(q Query) ([]Result, ExecStats, error) {
	return e.execute(context.Background(), q, !e.Uncached)
}

func (e *Engine) execute(ctx context.Context, q Query, cached bool) ([]Result, ExecStats, error) {
	var stats ExecStats
	configs := e.Configurations(q)
	// No size hint: most keyword queries produce zero or a handful of
	// tuples, and an unhinted map defers bucket allocation until first use.
	byTuple := make(map[relational.TupleID]int)
	var out []Result
	for _, cfg := range configs {
		rows, st, err := e.dbSelect(ctx, cfg.Structured, cached)
		if err != nil {
			return nil, stats, fmt.Errorf("execute %s: %w", q.ID, err)
		}
		stats.StructuredQueries++
		stats.TuplesScanned += st.TuplesScanned
		stats.CacheHits += st.CacheHits
		if cfg.Join {
			rows = e.joinProject(rows, cfg.Table)
		}
		stats.TuplesReturned += len(rows)
		out = e.mergeRows(out, byTuple, rows, cfg.Confidence, q.ID)
	}
	return out, stats, nil
}

// dbSelect answers one structured query, going through the query cache
// when caching is allowed for this execution.
func (e *Engine) dbSelect(ctx context.Context, q relational.Query, cached bool) ([]*relational.Row, relational.SelectStats, error) {
	if !cached {
		return e.db.SelectUncachedContext(ctx, q)
	}
	if e.Cache == nil {
		return e.db.SelectContext(ctx, q)
	}
	if rows, ok := e.Cache.getResults(e.db, q); ok {
		return rows, relational.SelectStats{TuplesReturned: len(rows), CacheHits: 1}, nil
	}
	rows, st, err := e.db.SelectContext(ctx, q)
	if err == nil {
		e.Cache.putResults(e.db, q, rows)
	}
	return rows, st, err
}

// dbSelectMulti answers a batch of structured queries: cached entries
// fill their slots directly, the remainder executes through the shared
// multi-query path, and fresh results populate the cache.
func (e *Engine) dbSelectMulti(ctx context.Context, batch []relational.Query, workers int, cached bool) ([][]*relational.Row, relational.SelectStats, error) {
	if !cached {
		return e.db.SelectMultiUncachedContext(ctx, batch, workers)
	}
	if e.Cache == nil {
		return e.db.SelectMultiWorkersContext(ctx, batch, workers)
	}
	sets := make([][]*relational.Row, len(batch))
	var stats relational.SelectStats
	var missIdx []int
	var miss []relational.Query
	for i, q := range batch {
		if rows, ok := e.Cache.getResults(e.db, q); ok {
			sets[i] = rows
			stats.CacheHits++
			stats.TuplesReturned += len(rows)
			continue
		}
		missIdx = append(missIdx, i)
		miss = append(miss, q)
	}
	if len(miss) > 0 {
		msets, st, err := e.db.SelectMultiWorkersContext(ctx, miss, workers)
		if err != nil {
			return nil, stats, err
		}
		stats.Add(st)
		for j, i := range missIdx {
			sets[i] = msets[j]
			e.Cache.putResults(e.db, batch[i], msets[j])
		}
	}
	return sets, stats, nil
}

// joinProject maps rows across their FK–PK relationships into the target
// table — the result-assembly half of a join configuration.
func (e *Engine) joinProject(rows []*relational.Row, targetTable string) []*relational.Row {
	var out []*relational.Row
	seen := make(map[relational.TupleID]struct{})
	for _, r := range rows {
		for _, rel := range e.db.Related(r) {
			if !equalFold(rel.ID.Table, targetTable) {
				continue
			}
			if _, dup := seen[rel.ID]; dup {
				continue
			}
			seen[rel.ID] = struct{}{}
			out = append(out, rel)
		}
	}
	return out
}

// mergeRows folds rows produced at the given confidence into the result
// set, applying the optional FK–PK related expansion. When a tuple is
// produced again at a strictly higher confidence, the result is
// re-attributed to the producing query; an equal confidence keeps the
// first query ID, so ties resolve deterministically to the earliest
// producer whatever order later configurations arrive in.
func (e *Engine) mergeRows(out []Result, byTuple map[relational.TupleID]int, rows []*relational.Row, conf float64, queryID string) []Result {
	add := func(r *relational.Row, c float64) {
		if i, ok := byTuple[r.ID]; ok {
			if c > out[i].Confidence {
				out[i].Confidence = c
				out[i].Query = queryID
			}
			return
		}
		byTuple[r.ID] = len(out)
		out = append(out, Result{Tuple: r, Confidence: c, Query: queryID})
	}
	for _, r := range rows {
		add(r, conf)
		if e.IncludeRelated {
			for _, rel := range e.db.Related(r) {
				add(rel, conf*e.RelatedDiscount)
			}
		}
	}
	return out
}

// ExecuteBatch runs a set of keyword queries (all generated from one
// annotation). With shared=false every query executes in isolation, exactly
// as Execute would. With shared=true the executor applies the §6 shared
// multi-query optimization: identical structured queries across the batch
// (detected by fingerprint) execute only once, and the result rows are
// distributed to every (query, configuration) that needed them.
func (e *Engine) ExecuteBatch(qs []Query, shared bool) (map[string][]Result, ExecStats, error) {
	return e.ExecuteBatchContext(context.Background(), qs, shared, Limits{})
}

// ExecuteBatchContext is ExecuteBatch under governance: between queries —
// and between structured-query chunks on the shared path — the executor
// checks ctx and the scan budget. Cancellation returns the results
// completed so far together with the context's error; a spent scan budget
// stops execution, keeps the partial results, and records the reason in
// ExecStats.Degraded. An ungoverned call (background context, zero Limits)
// takes the exact legacy path.
//
// The shared path is a PlannedBatch executing every fingerprint of its
// plan, so the planner's waves and this exhaustive run share one fold
// order, chunking and truncation rule.
//
// Limits.MaxWorkers > 1 executes independent work concurrently: distinct
// queries on the unshared path, row segments of the shared scans on the
// shared one. Execution order is the only thing that changes — results
// are folded in the sequential order afterwards, applying the exact
// sequential cancellation and budget rules, so output (tuples,
// confidences, Degraded reasons, truncation point) is byte-identical at
// any worker count. Only the scheduling fields of ExecStats (Workers,
// ParallelBatches) differ.
func (e *Engine) ExecuteBatchContext(ctx context.Context, qs []Query, shared bool, lim Limits) (map[string][]Result, ExecStats, error) {
	var stats ExecStats
	results := make(map[string][]Result, len(qs))
	gov := governed(ctx, lim)
	workers := lim.Workers()
	stats.Workers = workers
	// A scan budget forces uncached execution: budget truncation points
	// depend on actual scan counts, and a cache hit scans nothing.
	cached := !e.Uncached && lim.Unlimited()
	if !shared {
		if workers > 1 {
			return e.executeUnsharedParallel(ctx, qs, lim, gov, workers, cached)
		}
		for _, q := range qs {
			if gov {
				if err := ctx.Err(); err != nil {
					return results, stats, err
				}
				if !lim.Unlimited() && stats.TuplesScanned >= lim.MaxScannedRows {
					stats.Degraded = append(stats.Degraded, degradedScanBudget(stats.TuplesScanned, lim.MaxScannedRows))
					return results, stats, nil
				}
			}
			rs, st, err := e.execute(ctx, q, cached)
			if err != nil {
				return results, stats, err
			}
			stats.Add(st)
			results[q.ID] = rs
		}
		return results, stats, nil
	}

	// Shared: one PlannedBatch plans the batch, executes every fingerprint
	// and folds each query in the global fingerprint order.
	if err := ctx.Err(); err != nil {
		return results, stats, err
	}
	pspan, _ := trace.StartSpan(ctx, "plan")
	pb := e.NewPlannedBatch(qs)
	stats.SharedQueries = pb.SharedRefs()
	if pspan.Enabled() {
		pspan.AddInt("keyword_queries", len(qs))
		pspan.AddInt("distinct_structured", pb.DistinctStructured())
		pspan.AddInt("shared_structured", stats.SharedQueries)
		pspan.End()
	}
	// An interruption (the context error, returned bare) keeps the
	// executed prefix; a database error discards the batch.
	_, err := pb.ExecuteFingerprints(ctx, pb.ordered, lim, &stats)
	if err != nil && err != ctx.Err() {
		return results, stats, err
	}
	mspan, _ := trace.StartSpan(ctx, "merge")
	for qi, q := range qs {
		results[q.ID] = pb.MergeQuery(qi, &stats)
	}
	if mspan.Enabled() {
		mspan.AddInt("tuples_returned", stats.TuplesReturned)
		mspan.End()
	}
	return results, stats, err
}

// executeUnsharedParallel is the unshared path with a worker pool: queries
// execute optimistically in waves of `workers`, and the fold applies the
// sequential governance rules (context first, then scan budget) in query
// order before consuming each result. The accumulated TuplesScanned at each
// fold step equals the sequential prefix sum, so partial results under a
// spent budget — and the Degraded reason recording it — are identical to
// the workers == 1 path.
func (e *Engine) executeUnsharedParallel(ctx context.Context, qs []Query, lim Limits, gov bool, workers int, cached bool) (map[string][]Result, ExecStats, error) {
	var stats ExecStats
	stats.Workers = workers
	results := make(map[string][]Result, len(qs))
	type qOut struct {
		rs   []Result
		st   ExecStats
		err  error
		done bool
	}
	outs := make([]qOut, len(qs))
	run := func(i int) {
		outs[i].rs, outs[i].st, outs[i].err = e.execute(ctx, qs[i], cached)
		outs[i].done = true
	}
	for waveLo := 0; waveLo < len(qs); waveLo += workers {
		waveHi := waveLo + workers
		if waveHi > len(qs) {
			waveHi = len(qs)
		}
		pool.Run(ctx, waveHi-waveLo, workers, func(i int) { run(waveLo + i) })
		stats.ParallelBatches++
		for i := waveLo; i < waveHi; i++ {
			if gov {
				if err := ctx.Err(); err != nil {
					return results, stats, err
				}
				if !lim.Unlimited() && stats.TuplesScanned >= lim.MaxScannedRows {
					stats.Degraded = append(stats.Degraded, degradedScanBudget(stats.TuplesScanned, lim.MaxScannedRows))
					return results, stats, nil
				}
			}
			if !outs[i].done {
				run(i)
			}
			if outs[i].err != nil {
				return results, stats, outs[i].err
			}
			stats.Add(outs[i].st)
			results[qs[i].ID] = outs[i].rs
		}
	}
	return results, stats, nil
}
