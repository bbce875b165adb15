package relational

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"nebula/internal/pool"
)

// minSegmentRows is the smallest slice of a shared table pass worth handing
// to its own worker; below it the scheduling overhead dominates the scan.
const minSegmentRows = 256

// hit records one row matching one query during a shared table pass.
type hit struct {
	qi int
	r  *Row
}

// SelectMulti executes a batch of queries, sharing table scans: queries
// against the same table that lack a usable index are all evaluated in a
// single pass over the table, instead of one scan each. Queries with an
// index access path execute individually (index lookups are already cheap
// and share nothing). Results align with the input order.
//
// This is the substrate-level half of the paper's §6 shared multi-query
// execution: the keyword executor detects identical structured queries by
// fingerprint, and SelectMulti shares the physical scans of the distinct
// remainder.
func (db *Database) SelectMulti(queries []Query) ([][]*Row, SelectStats, error) {
	return db.selectMultiWorkers(queries, 1, true)
}

// SelectMultiWorkers is SelectMulti with a worker pool: the per-table scan
// groups are split into row segments and partitioned — together with the
// individual indexed lookups — across up to workers goroutines
// (workers <= 0 selects runtime.GOMAXPROCS; larger values clamp to
// GOMAXPROCS, since oversubscribing scan segments only adds scheduling
// overhead). Results and stats are merged in the sequential order (indexed
// queries first, then tables in first-seen order, then row order), so the
// output is byte-identical to SelectMulti whatever the worker count;
// workers == 1 runs everything inline on the calling goroutine.
func (db *Database) SelectMultiWorkers(queries []Query, workers int) ([][]*Row, SelectStats, error) {
	return db.selectMultiWorkers(queries, workers, true)
}

// SelectMultiUncached is SelectMultiWorkers bypassing the scan cache; see
// SelectUncached for when that matters.
func (db *Database) SelectMultiUncached(queries []Query, workers int) ([][]*Row, SelectStats, error) {
	return db.selectMultiWorkers(queries, workers, false)
}

func (db *Database) selectMultiWorkers(queries []Query, workers int, useCache bool) ([][]*Row, SelectStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	results := make([][]*Row, len(queries))
	var stats SelectStats

	// Partition (sequential, deterministic): indexed queries run directly;
	// scan queries group by table, checking the scan cache first — a hit
	// fills its result slot immediately and drops out of the shared pass.
	// Validation errors surface here, before any execution, in input order.
	type scanItem struct {
		idx   int
		q     Query
		preds []boundPredicate
	}
	type cacheFill struct {
		idx   int
		key   string
		epoch uint64
	}
	var indexed []scanItem
	var fills []cacheFill // scan-query misses to Put after the merge
	scansByTable := make(map[string][]scanItem)
	var tableOrder []string
	caching := useCache && db.scanCache != nil
	for i, q := range queries {
		t, ok := db.Table(q.Table)
		if !ok {
			return nil, stats, fmt.Errorf("select: unknown table %q", q.Table)
		}
		preds, err := bindPredicates(t, q)
		if err != nil {
			return nil, stats, err
		}
		if _, _, ok := accessPath(t, preds); ok {
			indexed = append(indexed, scanItem{idx: i, q: q})
			continue
		}
		if caching {
			key, epoch := q.Fingerprint(), t.Epoch()
			if rows, ok := db.scanCache.Get(key, epoch); ok {
				results[i] = rows
				stats.CacheHits++
				stats.TuplesReturned += len(rows)
				continue
			}
			fills = append(fills, cacheFill{idx: i, key: key, epoch: epoch})
		}
		key := strings.ToLower(q.Table)
		if _, seen := scansByTable[key]; !seen {
			tableOrder = append(tableOrder, key)
		}
		scansByTable[key] = append(scansByTable[key], scanItem{idx: i, q: q, preds: preds})
	}

	// One shared pass per table answers every scan query. Single-predicate
	// equality queries — the overwhelmingly common shape the keyword
	// executor generates — are folded into per-column hash probes: the
	// row's cell value is hashed once and matched against all operands
	// simultaneously, so the per-row cost is O(probed columns), not
	// O(queries). Everything else falls back to per-query evaluation
	// within the same pass, with its predicates bound once above.
	type probe struct {
		colIdx int
		byKey  map[string][]int // operand key -> query indexes
	}
	type tablePass struct {
		t        *Table
		probes   []*probe
		residual []scanItem
	}
	passes := make([]*tablePass, len(tableOrder))
	for pi, key := range tableOrder {
		items := scansByTable[key]
		t := db.tables[key]
		pass := &tablePass{t: t}
		probeByCol := make(map[int]*probe)
		for _, item := range items {
			if len(item.preds) == 1 && item.preds[0].op == OpEq {
				ci := item.preds[0].col
				p, ok := probeByCol[ci]
				if !ok {
					p = &probe{colIdx: ci, byKey: make(map[string][]int)}
					probeByCol[ci] = p
					pass.probes = append(pass.probes, p)
				}
				k := item.preds[0].operand.Key()
				p.byKey[k] = append(p.byKey[k], item.idx)
				continue
			}
			pass.residual = append(pass.residual, item)
		}
		passes[pi] = pass
	}

	// Task list: one task per indexed query, then one per row segment of
	// each table pass. Every task writes only its own slot, so the pool
	// needs no locking and the merge below fixes the deterministic order.
	// Match buffers come from a sync.Pool and go back after the merge, so
	// steady-state batches stop re-growing per-segment slices.
	type segment struct {
		pass   *tablePass
		lo, hi int
		hits   []hit
	}
	var segments []*segment
	segsByPass := make([][]*segment, len(passes))
	for pi, pass := range passes {
		n := pass.t.Len()
		size := n
		if workers > 1 {
			size = (n + workers - 1) / workers
			if size < minSegmentRows {
				size = minSegmentRows
			}
		}
		for lo := 0; lo < n; lo += size {
			hi := lo + size
			if hi > n {
				hi = n
			}
			seg := &segment{pass: pass, lo: lo, hi: hi, hits: getHitBuf()}
			segments = append(segments, seg)
			segsByPass[pi] = append(segsByPass[pi], seg)
		}
	}
	idxRows := make([][]*Row, len(indexed))
	idxStats := make([]SelectStats, len(indexed))
	pool.Run(context.Background(), len(indexed)+len(segments), workers, func(ti int) {
		if ti < len(indexed) {
			// Validation above guarantees these cannot error.
			rows, st, _ := db.selectQuery(indexed[ti].q, useCache)
			idxRows[ti], idxStats[ti] = rows, st
			return
		}
		seg := segments[ti-len(indexed)]
		var keyBuf [64]byte
		for _, r := range seg.pass.t.rows[seg.lo:seg.hi] {
			for _, p := range seg.pass.probes {
				key := r.Values[p.colIdx].AppendKey(keyBuf[:0])
				for _, qi := range p.byKey[string(key)] {
					seg.hits = append(seg.hits, hit{qi: qi, r: r})
				}
			}
			for _, item := range seg.pass.residual {
				if matchesAll(item.preds, -1, r) {
					seg.hits = append(seg.hits, hit{qi: item.idx, r: r})
				}
			}
		}
	})

	// Merge in the fixed sequential order.
	for ti, item := range indexed {
		results[item.idx] = idxRows[ti]
		stats.Add(idxStats[ti])
	}
	for pi, pass := range passes {
		stats.TuplesScanned += pass.t.Len()
		for _, seg := range segsByPass[pi] {
			for _, h := range seg.hits {
				results[h.qi] = append(results[h.qi], h.r)
				stats.TuplesReturned++
			}
		}
	}
	for _, seg := range segments {
		putHitBuf(seg.hits)
	}
	for _, f := range fills {
		rows := results[f.idx]
		db.scanCache.Put(f.key, f.epoch, rows[:len(rows):len(rows)], scanEntryCost(f.key, len(rows)))
	}
	return results, stats, nil
}
