package main

import (
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"nebula"
	"nebula/internal/wal"
)

// layerMetric is one per-layer metric: the layer (module) it belongs to,
// its unit, and the end-to-end metric it should move.
type layerMetric struct {
	layer, name, unit, moves string
}

// layerCatalog lists every per-layer metric in the order of the table.
// Every workload reports all of them; a layer a workload does not exercise
// reads 0 there.
var layerCatalog = []layerMetric{
	{"sigmap", "sigmap.map_ms", "ms", "answer_p50_ms"},
	{"sigmap", "sigmap.adjust_ms", "ms", "answer_p50_ms"},
	{"sigmap", "sigmap.form_ms", "ms", "answer_p50_ms"},
	{"sigmap", "sigmap.queries_per_ann", "count", "answer_p50_ms"},
	{"keyword", "keyword.execute_ms", "ms", "answer_p50_ms, ops_per_s"},
	{"keyword", "keyword.structured_queries", "count", "answer_p50_ms"},
	{"keyword", "keyword.shared_ratio", "ratio", "answer_p50_ms"},
	{"relational", "relational.rows_scanned_per_ann", "count", "answer_p90_ms"},
	{"relational", "relational.scanned_per_returned", "ratio", "answer_p90_ms"},
	{"discovery", "discovery.adjust_rank_ms", "ms", "answer_p50_ms"},
	{"discovery", "discovery.candidates_per_ann", "count", "answer_p50_ms"},
	{"verification", "verification.submit_ms", "ms", "ops_per_s, visible_p50_ms"},
	{"verification", "verification.auto_accept_share", "ratio", "ops_per_s"},
	{"verification", "verification.expert_share", "ratio", "ops_per_s"},
	{"verification", "verification.auto_reject_share", "ratio", "ops_per_s"},
	{"verification", "verification.quality_fn", "ratio", "- (quality)"},
	{"verification", "verification.quality_fp", "ratio", "- (quality)"},
	{"verification", "verification.expert_load", "count", "- (quality)"},
	{"acg", "acg.hops_ms", "ms", "ops_per_s, visible_p50_ms"},
	{"acg", "acg.edges", "count", "ops_per_s"},
	{"cache", "cache.discovery_hit_ratio", "ratio", "answer_p50_ms"},
	{"cache", "cache.query_hit_ratio", "ratio", "answer_p50_ms"},
	{"cache", "cache.scan_hit_ratio", "ratio", "answer_p50_ms"},
	{"cache", "cache.mapping_hit_ratio", "ratio", "answer_p50_ms"},
	{"cache", "cache.invalidations_per_write", "count", "answer_p50_ms"},
	{"cache", "cache.evictions", "count", "answer_p50_ms"},
	{"cache", "cache.mb", "MB", "heap_mb"},
	{"engine", "engine.process_ms", "ms", "ops_per_s"},
	{"engine", "engine.other_ms", "ms", "ops_per_s, write_p90_ms"},
	{"engine", "engine.one_client_per_s", "1/s", "ops_per_s"},
	{"engine", "engine.two_client_per_s", "1/s", "ops_per_s"},
	{"engine", "engine.call_add_ms", "ms", "write_p90_ms"},
	{"engine", "engine.call_process_ms", "ms", "answer_p50_ms"},
	{"engine", "engine.call_discover_ms", "ms", "answer_p50_ms"},
	{"engine", "engine.call_add_async_ms", "ms", "write_p90_ms"},
	{"engine", "engine.call_mutate_ms", "ms", "write_p90_ms"},
	{"engine", "engine.call_verdict_ms", "ms", "write_p90_ms"},
	{"engine", "engine.call_restore_ms", "ms", "answer_p50_ms"},
	{"engine", "engine.call_recover_wal_ms", "ms", "write_p90_ms"},
	{"wal", "wal.records_per_op", "count", "write_p90_ms"},
	{"wal", "wal.bytes_per_record", "bytes", "write_p90_ms"},
	{"wal", "wal.encode_us", "us", "write_p90_ms"},
	{"wal", "wal.append_us", "us", "write_p90_ms"},
	{"wal", "wal.sync_ms", "ms", "write_p90_ms"},
	{"wal", "wal.sync_absorbed_ratio", "ratio", "write_p90_ms"},
	{"wal", "wal.decode_us", "us", "answer_p50_ms (recover)"},
	{"wal", "wal.replay_decode_share", "ratio", "write_p90_ms (recover)"},
	{"wal", "wal.replay_submit_share", "ratio", "write_p90_ms (recover)"},
	{"snapshot", "snapshot.load_ms", "ms", "visible_p50_ms (recover)"},
	{"segment", "segment.lookup_us", "us", "ops_per_s (recover)"},
	{"segment", "segment.lookups_per_query", "count", "ops_per_s (recover)"},
	{"segment", "segment.tail_postings", "count", "answer_p50_ms (recover)"},
	{"segment", "segment.dirty_rows", "count", "answer_p50_ms (recover)"},
	{"ingest", "ingest.rediscoveries_per_mutation", "count", "visible_p50_ms, write_p90_ms"},
	{"ingest", "ingest.coalesced_ratio", "ratio", "visible_p50_ms"},
	{"ingest", "ingest.queue_depth_max", "count", "visible_p50_ms"},
	{"ingest", "ingest.drain_ms", "ms", "visible_p50_ms"},
	{"go", "go.alloc_kb_per_op", "KB", "every latency"},
	{"go", "go.gc_cycles_per_op", "count", "every latency"},
	{"loadgen", "loadgen.lateness_ms", "ms", "- (validity of curate)"},
	{"trace", "trace.overhead_ms", "ms", "- (traced minus untraced answer_p50_ms)"},
	{"trace", "trace.span_cost_us", "us", "- (cost of one recorded span)"},
	{"trace", "trace.spans", "count", "-"},
}

// layers collects per-layer values by metric name.
type layers map[string]float64

// metrics renders the collected values in the catalog's units; a metric no
// stage set reads 0.
func (l layers) metrics() map[string]metric {
	out := make(map[string]metric, len(layerCatalog))
	for _, m := range layerCatalog {
		out[m.name] = metric{Value: l[m.name], Unit: m.unit}
	}
	return out
}

// table renders the per-layer table rows.
func (l layers) table() []layerRow {
	rows := make([]layerRow, 0, len(layerCatalog))
	for _, m := range layerCatalog {
		rows = append(rows, layerRow{layer: m.layer, metric: m.name, value: l[m.name], unit: m.unit, moves: m.moves})
	}
	return rows
}

// finish writes the span file and the per-layer table of a traced run.
func (l layers) finish(cfg config, tr *tracer) error {
	tr.mu.Lock()
	l["trace.spans"] = float64(len(tr.spans))
	tr.mu.Unlock()
	l["trace.span_cost_us"] = spanCost()
	base := filepath.Join(cfg.out, "trace", cfg.workload+"-"+strconv.FormatInt(cfg.seed, 10))
	if err := writeLayerTable(base+".layers.txt", cfg.workload, l.table()); err != nil {
		return err
	}
	return tr.write(base + ".spans.jsonl")
}

// addShadow records the Stage 1–3 per-annotation means from a shadow pass.
func (l layers) addShadow(s *shadow, tr *tracer) {
	if s == nil || s.runs == 0 {
		return
	}
	self := tr.selfTimes()
	n := float64(s.runs)
	sum := func(name string) float64 {
		t := 0.0
		for _, v := range self[name] {
			t += v
		}
		return t / n
	}
	l["sigmap.map_ms"] = sum("sigmap.map")
	l["sigmap.adjust_ms"] = sum("sigmap.adjust")
	l["sigmap.form_ms"] = sum("sigmap.form")
	l["sigmap.queries_per_ann"] = float64(s.queries) / n
	l["keyword.execute_ms"] = sum("keyword.execute")
	l["keyword.structured_queries"] = float64(s.exec.StructuredQueries) / n
	l["keyword.shared_ratio"] = ratio(float64(s.exec.SharedQueries), float64(s.exec.StructuredQueries))
	l["relational.rows_scanned_per_ann"] = float64(s.exec.TuplesScanned) / n
	l["relational.scanned_per_returned"] = ratio(float64(s.exec.TuplesScanned), float64(s.exec.TuplesReturned))
	l["discovery.adjust_rank_ms"] = sum("discovery.identify")
	l["discovery.candidates_per_ann"] = float64(s.candidates) / n
	if s.manager != nil {
		l["verification.submit_ms"] = sum("verification.submit")
		l["acg.hops_ms"] = sum("acg.hops")
		routed := float64(s.accepted + s.pending + s.rejected)
		l["verification.auto_accept_share"] = ratio(float64(s.accepted), routed)
		l["verification.expert_share"] = ratio(float64(s.pending), routed)
		l["verification.auto_reject_share"] = ratio(float64(s.rejected), routed)
	}
}

// stageSum is the per-annotation mean of the Stage 1–3 self times the
// shadow measured, the part of a Process the layers account for.
func (l layers) stageSum() float64 {
	return l["sigmap.map_ms"] + l["sigmap.adjust_ms"] + l["sigmap.form_ms"] +
		l["keyword.execute_ms"] + l["discovery.adjust_rank_ms"] + l["verification.submit_ms"]
}

// counters is a snapshot of the engine's public stats and the Go runtime,
// taken around a measured phase.
type counters struct {
	cache  nebula.CacheStats
	wal    nebula.WALStats
	ingest nebula.IngestStats
	store  nebula.StoreStats
	mem    runtime.MemStats
}

func readCounters(e *nebula.Engine) counters {
	c := counters{cache: e.CacheStats(), wal: e.WALStats(), ingest: e.IngestStats(), store: e.StoreStats()}
	runtime.ReadMemStats(&c.mem)
	return c
}

// addCounters records the counter deltas of a measured phase of ops
// operations, of which writes were writes.
func (l layers) addCounters(before, after counters, ops, writes int) {
	hit := func(a, b nebula.CacheCounters) float64 {
		return ratio(float64(b.Hits-a.Hits), float64(b.Hits-a.Hits+b.Misses-a.Misses))
	}
	l["cache.discovery_hit_ratio"] = hit(before.cache.Discovery, after.cache.Discovery)
	l["cache.query_hit_ratio"] = hit(before.cache.Query, after.cache.Query)
	l["cache.scan_hit_ratio"] = hit(before.cache.Scan, after.cache.Scan)
	l["cache.mapping_hit_ratio"] = hit(before.cache.Mapping, after.cache.Mapping)
	bt, at := before.cache.Totals(), after.cache.Totals()
	l["cache.invalidations_per_write"] = ratio(float64(at.Invalidations-bt.Invalidations), float64(writes))
	l["cache.evictions"] = float64(at.Evictions - bt.Evictions)
	l["cache.mb"] = float64(at.Bytes) / (1 << 20)

	wb, wa := before.wal.Log, after.wal.Log
	records := float64(wa.Appended - wb.Appended)
	l["wal.records_per_op"] = ratio(records, float64(ops))
	l["wal.bytes_per_record"] = ratio(float64(wa.AppendedBytes-wb.AppendedBytes), records)
	syncs := float64(wa.Syncs - wb.Syncs)
	l["wal.sync_ms"] = ratio(float64(wa.SyncNanos-wb.SyncNanos)/1e6, syncs)
	absorbed := float64(wa.SyncAbsorbed - wb.SyncAbsorbed)
	l["wal.sync_absorbed_ratio"] = ratio(absorbed, absorbed+syncs)

	if after.store.Enabled {
		l["segment.tail_postings"] = float64(after.store.TailPostings)
		l["segment.dirty_rows"] = float64(after.store.DirtyRows)
	}
	l["go.alloc_kb_per_op"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024, float64(ops))
	l["go.gc_cycles_per_op"] = ratio(float64(after.mem.NumGC-before.mem.NumGC), float64(ops))
}

// addWALCodec times the wal layer's codec and append path on the records
// of a closed log directory: Replay with a no-op apply (decode), then
// EncodeRecord and Append of the same records into a scratch log.
func (l layers) addWALCodec(dir, scratch string) error {
	var recs []*wal.Record
	start := time.Now()
	st, err := wal.Replay(dir, wal.ReplayConfig{}, func(r *wal.Record) error {
		recs = append(recs, r)
		return nil
	})
	decode := time.Since(start)
	if err != nil {
		return err
	}
	if st.Records == 0 {
		return nil
	}
	l["wal.decode_us"] = float64(decode.Microseconds()) / float64(st.Records)
	start = time.Now()
	for _, r := range recs {
		if _, err := wal.EncodeRecord(nil, r); err != nil {
			return err
		}
	}
	l["wal.encode_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(recs))
	log, err := wal.Open(scratch, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	start = time.Now()
	for _, r := range recs {
		if _, err := log.Append(r); err != nil {
			log.Close()
			return err
		}
	}
	l["wal.append_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(recs))
	return log.Close()
}

// spanCost measures the cost of recording one span on a scratch tracer.
func spanCost() float64 {
	t := newTracer()
	const n = 100000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.start(0, -1, "x"))
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / n
}
