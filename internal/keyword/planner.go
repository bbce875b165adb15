package keyword

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"nebula/internal/meta"
	"nebula/internal/relational"
)

// This file is the §6 shared multi-query executor, the only one: a
// PlannedBatch plans a batch (deduplicating structured queries by
// fingerprint), executes fingerprints, and folds each query's results. The
// exhaustive shared ExecuteBatchContext runs every fingerprint of the plan
// in one ExecuteFingerprints call; the discovery planner runs them in
// waves, stops early, and completes pruned queries against a frontier.
// Fold order, chunking and budget truncation are therefore defined here
// once, and a planner run that executes everything is byte-identical to
// the exhaustive one by construction.
//
// The subtlety the whole design turns on: in a shared batch, the order a
// query's configurations fold in is the first-appearance order of their
// fingerprints ACROSS THE WHOLE BATCH, not the query's own configuration
// order — a fingerprint shared with an earlier query folds earlier. A
// planner that executed query subsets as separate batches would therefore
// produce per-query result lists in a different relative order than the
// exhaustive run, and the discovery aggregation's first-seen tiebreak
// would drift. PlannedBatch enumerates the global plan once, executes
// fingerprints incrementally (each at most once, however many waves touch
// it), and merges every query against the one global fingerprint order.

// QueryEstimate is the planner's per-keyword-query estimate.
type QueryEstimate struct {
	// Cost is the estimated tuples scanned to execute every configuration.
	Cost float64
	// UpperBound bounds the weighted confidence this query can contribute
	// to any single tuple: max configuration confidence × query weight.
	// It is a hard bound, not an estimate — pruning decisions lean on it.
	UpperBound float64
	// Configs is the number of configurations the query maps to.
	Configs int
}

// planNeed is one configuration's claim on a fingerprint's rows: the
// consuming query, the configuration's confidence, and the join target
// the rows are projected into.
type planNeed struct {
	queryIdx  int
	conf      float64
	join      bool
	joinTable string
}

// PlannedBatch is one keyword-query batch with its global shared-execution
// plan enumerated up front. Not safe for concurrent use.
type PlannedBatch struct {
	e  *Engine
	qs []Query

	plans      [][]Configuration
	ordered    []string // fingerprint first-appearance order (the fold order)
	structured map[string]relational.Query
	wanted     map[string][]planNeed
	sharedRefs int

	rowSets  map[string][]*relational.Row // fingerprints executed by waves
	executed map[string]struct{}
	// harvested holds index-driven fingerprints evaluated during
	// completion: exact results obtained from the index buckets at the
	// same cost execution would have paid, kept separate from the
	// wave-executed set so plan stats stay honest.
	harvested map[string][]*relational.Row

	merged map[int][]Result

	// restricted memoizes frontier-restricted evaluations per fingerprint
	// (entries carry unit confidences — scaled per consuming need), valid
	// for restrictedFr only.
	restricted   map[string][]restrictedEntry
	restrictedFr *Frontier

	completionScanned int
}

// NewPlannedBatch enumerates the global shared-execution plan for the
// batch: per-query configurations, the deduplicated fingerprint order, and
// the consumer list per fingerprint, with nothing executed yet.
func (e *Engine) NewPlannedBatch(qs []Query) *PlannedBatch {
	pb := &PlannedBatch{
		e:          e,
		qs:         qs,
		plans:      make([][]Configuration, len(qs)),
		structured: make(map[string]relational.Query),
		wanted:     make(map[string][]planNeed),
		rowSets:    make(map[string][]*relational.Row),
		executed:   make(map[string]struct{}),
		harvested:  make(map[string][]*relational.Row),
		merged:     make(map[int][]Result),
	}
	for qi, q := range qs {
		pb.plans[qi] = e.Configurations(q)
		for _, cfg := range pb.plans[qi] {
			fp := cfg.Structured.Fingerprint()
			if _, seen := pb.wanted[fp]; !seen {
				pb.ordered = append(pb.ordered, fp)
				pb.structured[fp] = cfg.Structured
			} else {
				pb.sharedRefs++
			}
			pb.wanted[fp] = append(pb.wanted[fp], planNeed{
				queryIdx: qi, conf: cfg.Confidence,
				join: cfg.Join, joinTable: cfg.Table,
			})
		}
	}
	return pb
}

// DistinctStructured is the number of distinct structured queries in the
// plan; SharedRefs counts the configuration references deduplicated away.
func (pb *PlannedBatch) DistinctStructured() int { return len(pb.ordered) }

// SharedRefs counts configuration references answered by a fingerprint
// another configuration already introduced (the §6 sharing win).
func (pb *PlannedBatch) SharedRefs() int { return pb.sharedRefs }

// CompletionScanned is the number of tuples touched while completing
// pruned queries (index-bucket harvests plus frontier point evaluations).
func (pb *PlannedBatch) CompletionScanned() int { return pb.completionScanned }

// Estimates derives per-query cost and upper-bound estimates from the
// metadata estimator. Deterministic: catalog statistics only.
func (pb *PlannedBatch) Estimates(est *meta.Estimator) []QueryEstimate {
	out := make([]QueryEstimate, len(pb.qs))
	for qi, q := range pb.qs {
		qe := QueryEstimate{Configs: len(pb.plans[qi])}
		for _, cfg := range pb.plans[qi] {
			if unsatisfiableEq(cfg.Structured) {
				// An unsatisfiable configuration neither executes nor
				// contributes confidence; pricing it would both overstate
				// cost and loosen the upper bound.
				continue
			}
			qe.Cost += est.EstimateSelect(cfg.Structured).Cost
			ub := cfg.Confidence * q.Weight
			if pb.e.IncludeRelated && pb.e.RelatedDiscount > 1 {
				// Defensive: a discount above 1 would let related
				// expansions exceed the direct confidence.
				ub *= pb.e.RelatedDiscount
			}
			if ub > qe.UpperBound {
				qe.UpperBound = ub
			}
		}
		out[qi] = qe
	}
	return out
}

// IndexDriven reports whether the fingerprint's structured query can be
// answered from an index bucket — the same classification the relational
// access path and harvestIndexed use: OpEq against an indexed column or
// the primary key, or a token containment against a full-text column.
// Index-driven fingerprints cost O(bucket) to execute; everything else
// requires a full table scan.
func (pb *PlannedBatch) IndexDriven(fp string) bool {
	sq, ok := pb.structured[fp]
	if !ok {
		return false
	}
	t, ok := pb.e.db.Table(sq.Table)
	if !ok {
		return false
	}
	schema := t.Schema()
	for _, p := range sq.Predicates {
		col, cok := schema.Column(p.Column)
		if !cok {
			continue
		}
		switch p.Op {
		case relational.OpEq:
			if col.Indexed || strings.EqualFold(col.Name, schema.PrimaryKey) {
				return true
			}
		case relational.OpContainsToken:
			if col.FullText {
				return true
			}
		}
	}
	return false
}

// IndexableFingerprints returns the not-yet-executed index-driven
// fingerprints in global order — the planner's cheap first wave.
func (pb *PlannedBatch) IndexableFingerprints() []string {
	var out []string
	for _, fp := range pb.ordered {
		if _, done := pb.executed[fp]; done {
			continue
		}
		if pb.IndexDriven(fp) {
			out = append(out, fp)
		}
	}
	return out
}

// QueryComplete reports whether every fingerprint the query needs has been
// executed — its MergeQuery result is then byte-identical to the
// exhaustive run's.
func (pb *PlannedBatch) QueryComplete(qi int) bool {
	for _, cfg := range pb.plans[qi] {
		if _, done := pb.executed[cfg.Structured.Fingerprint()]; !done {
			return false
		}
	}
	return true
}

// PendingBound bounds what the not-yet-executed fingerprints can add to a
// single tuple's summed weighted confidence, before focal adjustment.
type PendingBound struct {
	// PerTable maps a lowercased produce table to the bound for a tuple
	// of that table. Fingerprints carrying an equality predicate are
	// grouped by (table, column): a tuple satisfies at most one operand
	// of a column, so each group contributes the maximum over operands of
	// the summed gains — the disjointness collapse that makes pruning
	// fire. Fingerprints without an equality predicate, and join
	// consumers (whose produced tuple is reachable from many source
	// rows), contribute their full gains as sums.
	PerTable map[string]float64
	// Total is the plain sum of every pending gain — the conservative
	// bound callers fall back to when related-tuple inclusion lets one
	// produced row spill confidence into other tables.
	Total float64
}

// unsatisfiableEq reports whether the structured query carries two
// equality predicates on the same column with distinct canonical
// operands. No tuple can satisfy both (OpEq matches case-insensitively;
// Key() is the case-folded canonical form), so such a query always
// produces nothing. The mapper already drops these configurations from
// the cross-product at build time (PR 8); this guard keeps the planner's
// pruning bound honest for any batch it did not build itself — crediting
// an unsatisfiable fingerprint's gain can only loosen the bound and delay
// top-k termination, never change results.
func unsatisfiableEq(sq relational.Query) bool {
	var eqCols map[string]string
	for _, p := range sq.Predicates {
		if p.Op != relational.OpEq {
			continue
		}
		col := strings.ToLower(p.Column)
		key := p.Operand.Key()
		if prev, seen := eqCols[col]; seen {
			if prev != key {
				return true
			}
			continue
		}
		if eqCols == nil {
			eqCols = make(map[string]string)
		}
		eqCols[col] = key
	}
	return false
}

// joinCollapsible reports whether every target-table row can relate to at
// most one source-table row: exactly one foreign key on target references
// source, and no foreign key on source references target. Under that shape
// the join productions of disjoint source selections are themselves
// disjoint, so their gains collapse by max like direct equality groups.
func (pb *PlannedBatch) joinCollapsible(source, target string) bool {
	tt, ok := pb.e.db.Table(target)
	if !ok {
		return false
	}
	fks := 0
	for _, fk := range tt.Schema().ForeignKeys {
		if strings.EqualFold(fk.RefTable, source) {
			fks++
		}
	}
	if fks != 1 {
		return false
	}
	st, ok := pb.e.db.Table(source)
	if !ok {
		return false
	}
	for _, fk := range st.Schema().ForeignKeys {
		if strings.EqualFold(fk.RefTable, target) {
			return false
		}
	}
	return true
}

// PendingBound computes the unseen-tuple bound over all not-yet-executed
// fingerprints. Deterministic: configuration confidences, query weights,
// and schema only.
func (pb *PlannedBatch) PendingBound() PendingBound {
	b := PendingBound{PerTable: make(map[string]float64)}
	// eqGroups[table][group][operand] accumulates the gains of the pending
	// fingerprints whose equality predicate — applied directly or through
	// a many-to-one join — has that operand; each group's contribution is
	// the max over operands.
	eqGroups := make(map[string]map[string]map[string]float64)
	add := func(table, group, operand string, g float64) {
		if eqGroups[table] == nil {
			eqGroups[table] = make(map[string]map[string]float64)
		}
		if eqGroups[table][group] == nil {
			eqGroups[table][group] = make(map[string]float64)
		}
		eqGroups[table][group][operand] += g
	}
	for _, fp := range pb.ordered {
		if _, done := pb.executed[fp]; done {
			continue
		}
		sq := pb.structured[fp]
		if unsatisfiableEq(sq) {
			// Execution drops these configurations; their gains must not
			// inflate the bound either.
			continue
		}
		srcTable := strings.ToLower(sq.Table)
		eqCol, eqOperand := "", ""
		for _, p := range sq.Predicates {
			if p.Op == relational.OpEq {
				eqCol = strings.ToLower(p.Column)
				// Key() lowercases string payloads — OpEq matches
				// case-insensitively, so operands differing only in case
				// are NOT disjoint and must share a group slot.
				eqOperand = p.Operand.Key()
				break
			}
		}
		for _, n := range pb.wanted[fp] {
			g := n.conf * pb.qs[n.queryIdx].Weight
			b.Total += g
			if !n.join {
				if eqCol == "" {
					b.PerTable[srcTable] += g
				} else {
					add(srcTable, eqCol, eqOperand, g)
				}
				continue
			}
			target := strings.ToLower(n.joinTable)
			if eqCol != "" && pb.joinCollapsible(sq.Table, n.joinTable) {
				add(target, "join:"+srcTable+":"+eqCol, eqOperand, g)
			} else {
				// A join-produced tuple may be reachable from several
				// matching source rows, one per pending fingerprint, so
				// these gains sum on the target table.
				b.PerTable[target] += g
			}
		}
	}
	for table, groups := range eqGroups {
		for _, ops := range groups {
			best := 0.0
			for _, g := range ops {
				if g > best {
					best = g
				}
			}
			b.PerTable[table] += best
		}
	}
	return b
}

// NextWave returns the not-yet-executed fingerprints of the execution
// table carrying the most pending gain (ties broken by lexicographically
// smaller table name), in global order — one wave costs one shared
// physical pass over that table. Returns nil when nothing is pending.
func (pb *PlannedBatch) NextWave() []string {
	gains := make(map[string]float64)
	for _, fp := range pb.ordered {
		if _, done := pb.executed[fp]; done {
			continue
		}
		table := strings.ToLower(pb.structured[fp].Table)
		for _, n := range pb.wanted[fp] {
			gains[table] += n.conf * pb.qs[n.queryIdx].Weight
		}
	}
	best := ""
	for table, g := range gains {
		if best == "" || g > gains[best] || (g == gains[best] && table < best) {
			best = table
		}
	}
	if best == "" {
		return nil
	}
	var out []string
	for _, fp := range pb.ordered {
		if _, done := pb.executed[fp]; done {
			continue
		}
		if strings.ToLower(pb.structured[fp].Table) == best {
			out = append(out, fp)
		}
	}
	return out
}

// ExecuteFingerprints executes the given not-yet-executed fingerprints,
// in global fingerprint order. A governed call (live context or scan
// budget) submits them in chunks of sharedChunk and checks cancellation
// and the scan budget before each chunk, against the deterministic
// accumulated scan count, so the truncation point is byte-identical at any
// worker count and independent of cache state (budgeted runs execute
// uncached). Each chunk's shared scans split into row segments across the
// workers. Returns interrupted=true when the budget stopped execution (the
// Degraded reason is recorded on stats). A cancellation comes back as the
// context's error, unwrapped, with the chunks executed so far kept; a
// database error comes back wrapped.
func (pb *PlannedBatch) ExecuteFingerprints(ctx context.Context, reqFps []string, lim Limits, stats *ExecStats) (interrupted bool, err error) {
	want := make(map[string]struct{}, len(reqFps))
	for _, fp := range reqFps {
		want[fp] = struct{}{}
	}
	var fps []string
	for _, fp := range pb.ordered {
		if _, done := pb.executed[fp]; done {
			continue
		}
		if _, ok := want[fp]; ok {
			fps = append(fps, fp)
		}
	}
	gov := governed(ctx, lim)
	workers := lim.Workers()
	if workers > stats.Workers {
		stats.Workers = workers
	}
	cached := !pb.e.Uncached && lim.Unlimited()
	// Ungoverned calls submit all fingerprints as one batch so scan
	// queries against the same table share a single physical pass.
	// Governed calls chunk so budget and deadline checks stay responsive.
	chunk := len(fps)
	if gov && chunk > sharedChunk {
		chunk = sharedChunk
	}
	for lo := 0; lo < len(fps); lo += chunk {
		hi := lo + chunk
		if hi > len(fps) {
			hi = len(fps)
		}
		if gov {
			if cerr := ctx.Err(); cerr != nil {
				return false, cerr
			}
			if !lim.Unlimited() && stats.TuplesScanned >= lim.MaxScannedRows {
				stats.Degraded = append(stats.Degraded, degradedScanBudget(stats.TuplesScanned, lim.MaxScannedRows))
				return true, nil
			}
		}
		batch := make([]relational.Query, hi-lo)
		for i := lo; i < hi; i++ {
			batch[i-lo] = pb.structured[fps[i]]
		}
		sets, st, serr := pb.e.dbSelectMulti(ctx, batch, workers, cached)
		if serr != nil {
			return false, fmt.Errorf("shared execute: %w", serr)
		}
		stats.StructuredQueries += len(batch)
		stats.TuplesScanned += st.TuplesScanned
		stats.CacheHits += st.CacheHits
		if workers > 1 {
			stats.ParallelBatches++
		}
		for i := lo; i < hi; i++ {
			pb.rowSets[fps[i]] = sets[i-lo]
			pb.executed[fps[i]] = struct{}{}
		}
	}
	return false, nil
}

// EachProduced calls visit for every (query, tuple, confidence)
// production of one executed fingerprint — join projection and
// related-tuple expansion included, exactly the stream mergeRows folds.
// Callers combine per-query confidences by max (mergeRows' semantics);
// emission order carries no meaning here. A fingerprint that has not
// executed produces nothing.
func (pb *PlannedBatch) EachProduced(fp string, visit func(qi int, row *relational.Row, conf float64)) {
	rows := pb.rowSets[fp]
	if len(rows) == 0 {
		return
	}
	for _, n := range pb.wanted[fp] {
		consumed := rows
		if n.join {
			consumed = pb.e.joinProject(rows, n.joinTable)
		}
		for _, r := range consumed {
			visit(n.queryIdx, r, n.conf)
			if pb.e.IncludeRelated {
				for _, rel := range pb.e.db.Related(r) {
					visit(n.queryIdx, rel, n.conf*pb.e.RelatedDiscount)
				}
			}
		}
	}
}

// MergeQuery folds one query's results from the executed fingerprints, in
// the global fingerprint order — for a fully executed query this is the
// query's slice of an exhaustive shared ExecuteBatchContext run (tuples,
// confidences, list order). Results are memoized; fingerprints not yet
// executed contribute nothing (the partial-merge semantics of an
// interrupted run).
func (pb *PlannedBatch) MergeQuery(qi int, stats *ExecStats) []Result {
	if rs, ok := pb.merged[qi]; ok {
		return rs
	}
	byTuple := make(map[relational.TupleID]int)
	var out []Result
	for _, fp := range pb.ordered {
		if _, done := pb.executed[fp]; !done {
			continue
		}
		rows := pb.rowSets[fp]
		for _, n := range pb.wanted[fp] {
			if n.queryIdx != qi {
				continue
			}
			consumed := rows
			if n.join {
				consumed = pb.e.joinProject(rows, n.joinTable)
			}
			stats.TuplesReturned += len(consumed)
			out = pb.e.mergeRows(out, byTuple, consumed, n.conf, pb.qs[qi].ID)
		}
	}
	pb.merged[qi] = out
	return out
}

// Frontier is the set of candidate tuples that could still reach the final
// top-k: completion evaluates pruned queries against exactly these rows.
type Frontier struct {
	db      *relational.Database
	member  map[relational.TupleID]struct{}
	tables  []string // lowercased, sorted
	byTable map[string][]*relational.Row
	pos     map[string]map[relational.TupleID]int // lazily built per table
}

// NewFrontier builds a frontier over rows of db (the searched database).
// Rows are deduplicated and ordered per table by insertion position, so
// frontier iteration is deterministic whatever order rows arrive in.
func NewFrontier(db *relational.Database, rows []*relational.Row) *Frontier {
	f := &Frontier{
		db:      db,
		member:  make(map[relational.TupleID]struct{}, len(rows)),
		byTable: make(map[string][]*relational.Row),
		pos:     make(map[string]map[relational.TupleID]int),
	}
	for _, r := range rows {
		if r == nil {
			continue
		}
		if _, dup := f.member[r.ID]; dup {
			continue
		}
		f.member[r.ID] = struct{}{}
		key := strings.ToLower(r.ID.Table)
		f.byTable[key] = append(f.byTable[key], r)
	}
	// One pass per frontier table orders its (few) rows by scan position
	// and memoizes those positions — without materializing a position map
	// for the whole table, which would dwarf the cost of the pruning this
	// frontier exists to cash in.
	for key, list := range f.byTable {
		f.tables = append(f.tables, key)
		want := make(map[relational.TupleID]*relational.Row, len(list))
		for _, r := range list {
			want[r.ID] = r
		}
		m := make(map[relational.TupleID]int, len(list))
		ordered := make([]*relational.Row, 0, len(list))
		if t, ok := db.Table(key); ok {
			for i, row := range t.Rows() {
				if fr, hit := want[row.ID]; hit {
					m[row.ID] = i
					ordered = append(ordered, fr)
					if len(ordered) == len(list) {
						break
					}
				}
			}
		}
		// Rows absent from the table (deleted since production) keep a
		// deterministic tail position after the stored rows.
		if len(ordered) < len(list) {
			for _, r := range list {
				if _, hit := m[r.ID]; !hit {
					m[r.ID] = len(m) + 1<<30
					ordered = append(ordered, r)
				}
			}
		}
		f.byTable[key] = ordered
		f.pos[key] = m
	}
	sort.Strings(f.tables)
	return f
}

// Size is the number of frontier tuples.
func (f *Frontier) Size() int { return len(f.member) }

func (f *Frontier) tableRows(table string) []*relational.Row {
	return f.byTable[strings.ToLower(table)]
}

// posOf is the row's insertion position in its table — the order a full
// scan visits rows in. Frontier rows are pre-resolved by NewFrontier;
// other rows (join sources reached through a frontier tuple) resolve by a
// linear probe, memoized — there are only ever a handful per completion.
func (f *Frontier) posOf(r *relational.Row) int {
	key := strings.ToLower(r.ID.Table)
	m, ok := f.pos[key]
	if !ok {
		m = make(map[relational.TupleID]int)
		f.pos[key] = m
	}
	if p, hit := m[r.ID]; hit {
		return p
	}
	p := 1 << 30
	if t, tok := f.db.Table(r.ID.Table); tok {
		for i, row := range t.Rows() {
			if row.ID == r.ID {
				p = i
				break
			}
		}
	}
	m[r.ID] = p
	return p
}

// restrictedEntry is one produced (row, confidence) with its position in
// the configuration's emission stream, comparable lexicographically.
type restrictedEntry struct {
	row  *relational.Row
	conf float64
	pos  [3]int
}

func lessPos(a, b [3]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

// CompleteQuery computes a pruned query's results restricted to the
// frontier, in the exact relative order an exhaustive shared run would
// have produced them. Index-driven configurations are harvested from
// their buckets in full (exact, and as cheap as executing them); full-scan
// configurations — the expensive ones pruning exists to skip — are point-
// evaluated against frontier rows only. The returned list contains every
// frontier tuple the query produces at its exact confidence; non-frontier
// tuples may be present (from harvested fingerprints) or absent (from
// point-evaluated ones), which is sound because, by construction of the
// frontier, they cannot reach the final top-k.
func (pb *PlannedBatch) CompleteQuery(qi int, fr *Frontier, stats *ExecStats) []Result {
	byTuple := make(map[relational.TupleID]int)
	var out []Result
	qID := pb.qs[qi].ID
	for _, fp := range pb.ordered {
		rows, exact := pb.exactRows(fp)
		for _, n := range pb.wanted[fp] {
			if n.queryIdx != qi {
				continue
			}
			if exact {
				consumed := rows
				if n.join {
					consumed = pb.e.joinProject(rows, n.joinTable)
				}
				stats.TuplesReturned += len(consumed)
				out = pb.e.mergeRows(out, byTuple, consumed, n.conf, qID)
				continue
			}
			entries := pb.restrictedEntries(fp, n, fr)
			stats.TuplesReturned += len(entries)
			for _, ent := range entries {
				conf := ent.conf * n.conf
				if i, ok := byTuple[ent.row.ID]; ok {
					if conf > out[i].Confidence {
						out[i].Confidence = conf
						out[i].Query = qID
					}
					continue
				}
				byTuple[ent.row.ID] = len(out)
				out = append(out, Result{Tuple: ent.row, Confidence: conf, Query: qID})
			}
		}
	}
	return out
}

// exactRows returns the fingerprint's full result rows when they are
// available exactly: already executed by a wave, previously harvested, or
// obtainable from an index bucket right now.
func (pb *PlannedBatch) exactRows(fp string) ([]*relational.Row, bool) {
	if _, done := pb.executed[fp]; done {
		return pb.rowSets[fp], true
	}
	if rows, ok := pb.harvested[fp]; ok {
		return rows, true
	}
	rows, ok := pb.harvestIndexed(pb.structured[fp])
	if ok {
		pb.harvested[fp] = rows
		return rows, true
	}
	return nil, false
}

// harvestIndexed replicates the executor's index access path for one
// structured query when an index can drive it: pick the smallest bucket
// among index-backed predicates (first wins ties, exactly like
// accessPath), then filter the bucket by the remaining predicates in
// bucket order. Costs O(bucket), same as executing the query; returns
// ok=false when no index applies (a full scan would be required).
func (pb *PlannedBatch) harvestIndexed(sq relational.Query) ([]*relational.Row, bool) {
	t, ok := pb.e.db.Table(sq.Table)
	if !ok {
		return nil, false
	}
	schema := t.Schema()
	best := -1
	var bucket []*relational.Row
	for pi, p := range sq.Predicates {
		col, cok := schema.Column(p.Column)
		if !cok {
			continue
		}
		var cand []*relational.Row
		switch p.Op {
		case relational.OpEq:
			if !col.Indexed && !strings.EqualFold(col.Name, schema.PrimaryKey) {
				continue
			}
			cand, _ = t.LookupEqual(p.Column, p.Operand)
		case relational.OpContainsToken:
			if !col.FullText {
				continue
			}
			cand = t.LookupToken(p.Column, p.Operand.Str())
		default:
			continue
		}
		if best == -1 || len(cand) < len(bucket) {
			best = pi
			bucket = cand
		}
	}
	if best == -1 {
		return nil, false
	}
	pb.completionScanned += len(bucket)
	var out []*relational.Row
	for _, r := range bucket {
		keep := true
		for pi, p := range sq.Predicates {
			if pi == best {
				continue
			}
			if !p.Matches(r) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, r)
		}
	}
	return out, true
}

func matchesAll(preds []relational.Predicate, r *relational.Row) bool {
	for _, p := range preds {
		if !p.Matches(r) {
			return false
		}
	}
	return true
}

// restrictedScanEval point-evaluates one full-scan configuration against
// the frontier: which frontier tuples does it produce, at what confidence,
// and in what relative order. Positions encode the configuration's
// emission stream — (scan position, join-projection position, related
// rank) — so sorting reproduces the exact relative order of the frontier
// tuples in the configuration's true result list.
// restrictedEntries returns the frontier-restricted evaluation of one
// fingerprint for a need's production shape, memoized — many queries
// consume the same fingerprint, and the produced rows and positions are
// need-independent. Entry confidences are unit multipliers (1 for direct
// production, RelatedDiscount for related expansion); consumers scale by
// the need's configuration confidence.
func (pb *PlannedBatch) restrictedEntries(fp string, n planNeed, fr *Frontier) []restrictedEntry {
	key := fp
	if n.join {
		key += "\x00" + strings.ToLower(n.joinTable)
	}
	if pb.restrictedFr != fr {
		pb.restrictedFr = fr
		pb.restricted = make(map[string][]restrictedEntry)
	}
	if ents, ok := pb.restricted[key]; ok {
		return ents
	}
	ents := pb.restrictedScanEval(pb.structured[fp], n, fr)
	pb.restricted[key] = ents
	return ents
}

func (pb *PlannedBatch) restrictedScanEval(sq relational.Query, n planNeed, fr *Frontier) []restrictedEntry {
	var entries []restrictedEntry
	produceTable := sq.Table
	if n.join {
		produceTable = n.joinTable
	}
	direct := fr.tableRows(produceTable)
	pb.completionScanned += len(direct)
	for _, frow := range direct {
		if pos, ok := pb.producedPos(sq, n, frow, fr); ok {
			entries = append(entries, restrictedEntry{row: frow, conf: 1, pos: [3]int{pos[0], pos[1], 0}})
		}
	}
	if pb.e.IncludeRelated {
		disc := pb.e.RelatedDiscount
		for _, table := range fr.tables {
			for _, frow := range fr.byTable[table] {
				var best [3]int
				found := false
				for _, pr := range pb.e.db.Related(frow) {
					if !equalFold(pr.ID.Table, produceTable) {
						continue
					}
					pos, ok := pb.producedPos(sq, n, pr, fr)
					if !ok {
						continue
					}
					j := pb.relatedRank(pr, frow)
					if j < 0 {
						continue
					}
					cand := [3]int{pos[0], pos[1], 1 + j}
					if !found || lessPos(cand, best) {
						best, found = cand, true
					}
				}
				if found {
					entries = append(entries, restrictedEntry{row: frow, conf: disc, pos: best})
				}
			}
		}
	}
	sort.SliceStable(entries, func(i, j int) bool { return lessPos(entries[i].pos, entries[j].pos) })
	return entries
}

// producedPos reports whether the configuration's result list contains row
// r, and at which position of the emission stream. Non-join: r matches all
// predicates, position = its scan position. Join: some row of the source
// table related to r matches all predicates; the position is the earliest
// (source scan position, index of r among the source row's related rows in
// the target table) — the order joinProject first emits r.
func (pb *PlannedBatch) producedPos(sq relational.Query, n planNeed, r *relational.Row, fr *Frontier) ([2]int, bool) {
	if !n.join {
		if !equalFold(r.ID.Table, sq.Table) || !matchesAll(sq.Predicates, r) {
			return [2]int{}, false
		}
		return [2]int{fr.posOf(r), 0}, true
	}
	if !equalFold(r.ID.Table, n.joinTable) {
		return [2]int{}, false
	}
	var best [2]int
	found := false
	for _, src := range pb.e.db.Related(r) {
		if !equalFold(src.ID.Table, sq.Table) || !matchesAll(sq.Predicates, src) {
			continue
		}
		ri := pb.joinEmissionIndex(src, r, n.joinTable)
		if ri < 0 {
			continue
		}
		cand := [2]int{fr.posOf(src), ri}
		if !found || cand[0] < best[0] || (cand[0] == best[0] && cand[1] < best[1]) {
			best, found = cand, true
		}
	}
	return best, found
}

// joinEmissionIndex is the position of target within src's related rows
// restricted to the join's target table — the order joinProject walks them.
func (pb *PlannedBatch) joinEmissionIndex(src, target *relational.Row, targetTable string) int {
	idx := 0
	for _, rel := range pb.e.db.Related(src) {
		if !equalFold(rel.ID.Table, targetTable) {
			continue
		}
		if rel.ID == target.ID {
			return idx
		}
		idx++
	}
	return -1
}

// relatedRank is the position of rel within r's related rows (unfiltered)
// — the order mergeRows walks the IncludeRelated expansion.
func (pb *PlannedBatch) relatedRank(r, rel *relational.Row) int {
	for j, cand := range pb.e.db.Related(r) {
		if cand.ID == rel.ID {
			return j
		}
	}
	return -1
}
