package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nebula"
	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/discovery"
	"nebula/internal/keyword"
	"nebula/internal/relational"
	"nebula/internal/segment"
	"nebula/internal/snapshot"
	"nebula/internal/verification"
	"nebula/internal/wal"
	"nebula/internal/workload"
)

// Recover workload parameters.
const (
	recoverMetaSeed  = 11  // seeds the NebulaMeta rebuild on every restore
	recoverJobs      = 200 // ingest jobs the tail drains (each logs a Submit)
	recoverTickEvery = 5   // tail writes per inline drain
	recoverQueued    = 3   // final tail writes left queued (no drain after)
	recoverSweep     = 150 // discoveries per restart after the first answer
	recoverMinIters  = 3
)

// recoverOptions is the disk-mode configuration: symbol-table search over
// mmap'd segments in storeDir, ingest on for the async writes in the tail.
func recoverOptions(storeDir string) nebula.Options {
	o := nebula.DefaultOptions()
	o.SearchTechnique = nebula.TechniqueSymbolTable
	o.Store = nebula.StoreConfig{Dir: storeDir}
	o.Ingest = nebula.IngestConfig{Enabled: true, QueueCap: 1 << 16}
	return o
}

func recoverMeta(db *nebula.Database) (*nebula.MetaRepository, error) {
	return workload.BuildMeta(db, rand.New(rand.NewSource(recoverMetaSeed)))
}

// recoverState is the pristine on-disk state every restart starts from,
// plus what the engine that wrote it looked like.
type recoverState struct {
	dir         string // holds snap, wal/, seg/
	ds          *workload.Dataset
	tail        []curateOp
	first       nebula.AnnotationID
	sweep       []nebula.AnnotationID
	fingerprint string // writer state after the tail
	answers     string // writer's discoveries of first + sweep
	walRecords  uint64 // records the tail appended
	// The ingest pipeline while the tail was logged (traced runs report it).
	ingestBefore, ingestAfter nebula.IngestStats
	mutations                 int
	depthMax                  int
	drainMS                   []float64
}

// buildRecover generates D_small, builds a disk-mode engine with a
// group-commit WAL, processes the dataset's workload annotations, takes a
// checkpoint, logs the seeded tail of curate-mix writes, and records the
// writer's fingerprint and answers. The engine is then closed without a
// further checkpoint, as a crash would leave it.
func buildRecover(seed int64, dir string) (*recoverState, error) {
	ds, err := workload.Generate(workload.SmallConfig(datasetSeed))
	if err != nil {
		return nil, err
	}
	repo, err := recoverMeta(ds.DB)
	if err != nil {
		return nil, err
	}
	e, err := nebula.NewWithState(ds.DB, repo, ds.Store, ds.Graph, recoverOptions(filepath.Join(dir, "seg")))
	if err != nil {
		return nil, err
	}
	defer closeEngine(e)
	if err := attachWAL(e, filepath.Join(dir, "wal")); err != nil {
		return nil, err
	}
	var seeded []nebula.AnnotationID
	for _, s := range ds.Workload {
		if err := e.AddAnnotation(s.Ann, s.Focal(1)); err != nil {
			return nil, err
		}
		if _, _, err := e.Process(s.Ann.ID); err != nil {
			return nil, err
		}
		seeded = append(seeded, s.Ann.ID)
	}
	if err := e.Checkpoint(filepath.Join(dir, "snap")); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	// The tail: curate-mix writes with a drain every recoverTickEvery,
	// until recoverJobs ingest jobs have drained; then recoverQueued more
	// writes whose jobs stay queued. Bounding the drained jobs rather than
	// the writes keeps the replayed Stage-3 work alike across seeds,
	// whatever the CDC fan-out of the mutated rows.
	st := &recoverState{dir: dir, ds: ds, ingestBefore: e.IngestStats()}
	before := e.WALStats().Log.Appended
	cur := newCurator(e, seeded)
	drained, queued := 0, -1
	for i, op := range curateOps(ds, seed, 1<<16, "rec:") {
		if op.kind == opRead {
			continue
		}
		if queued == recoverQueued {
			break
		}
		if err := cur.exec(cur.clients[len(st.tail)%curateClients], op, nil); err != nil {
			return nil, fmt.Errorf("tail op %d (%s): %w", i, op.kind, err)
		}
		st.tail = append(st.tail, op)
		if op.kind == opMutate {
			st.mutations++
		}
		if queued >= 0 {
			queued++
			continue
		}
		if len(st.tail)%recoverTickEvery == 0 {
			st.depthMax = max(st.depthMax, e.IngestStats().QueueDepth)
			t := time.Now()
			res, err := cur.drain(recoverJobs - drained)
			st.drainMS = append(st.drainMS, ms(time.Since(t)))
			if err != nil {
				return nil, err
			}
			if drained += res.Drained; drained >= recoverJobs {
				queued = 0
			}
		}
	}
	st.walRecords = e.WALStats().Log.Appended - before
	st.ingestAfter = e.IngestStats()
	st.fingerprint = fingerprint(e)

	rng := rand.New(rand.NewSource(seed ^ 0x7e57))
	ids := e.Store().IDs()
	st.first = ds.Workload[0].Ann.ID
	for _, op := range st.tail {
		if op.kind == opAdd {
			st.first = op.ann.ID
			break
		}
	}
	for _, i := range rng.Perm(len(ids))[:recoverSweep] {
		st.sweep = append(st.sweep, ids[i])
	}
	var b strings.Builder
	for _, id := range append([]nebula.AnnotationID{st.first}, st.sweep...) {
		d, err := e.Discover(id)
		if err != nil {
			return nil, fmt.Errorf("writer discover %s: %w", id, err)
		}
		fmt.Fprintf(&b, "%s:", id)
		renderDiscovery(&b, d)
		b.WriteByte('\n')
	}
	st.answers = b.String()
	return st, nil
}

// restart is one measured restart from a pristine copy.
type restart struct {
	engine                  *nebula.Engine
	restore, replay, answer time.Duration // restore, WAL replay, first answer
	sweep                   time.Duration
	fingerprint, answers    string
	queries                 int // keyword queries the sweep generated
	lookups                 uint64
	replayRecords           int
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// doRestart copies the pristine state to dir, then times RestoreEngine,
// RecoverWAL and the first Discover, and the sweep after it.
func doRestart(st *recoverState, dir string, tr *tracer, iter int64) (*restart, error) {
	if err := copyTree(st.dir, dir); err != nil {
		return nil, err
	}
	r := &restart{}
	root := tr.start(iter, -1, "op.restart")
	t0 := time.Now()
	f, err := os.Open(filepath.Join(dir, "snap"))
	if err != nil {
		return nil, err
	}
	id := tr.start(iter, root, "engine.RestoreEngine")
	e, err := nebula.RestoreEngine(f, recoverMeta, recoverOptions(filepath.Join(dir, "seg")))
	tr.end(id)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	r.engine = e
	t1 := time.Now()
	id = tr.start(iter, root, "engine.RecoverWAL")
	rs, err := e.RecoverWAL(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncGroup})
	tr.end(id)
	if err != nil {
		return r, fmt.Errorf("recover wal: %w", err)
	}
	r.replayRecords = rs.Records
	t2 := time.Now()
	id = tr.start(iter, root, "engine.Discover")
	d0, err := e.Discover(st.first)
	tr.end(id)
	t3 := time.Now()
	tr.end(root)
	if err != nil {
		return r, fmt.Errorf("first discover: %w", err)
	}
	r.restore, r.replay, r.answer = t1.Sub(t0), t2.Sub(t1), t3.Sub(t0)

	lookups := e.StoreStats().Store.Lookups
	discs := make([]*nebula.Discovery, 0, len(st.sweep))
	root = tr.start(iter, -1, "op.sweep")
	t4 := time.Now()
	for _, aid := range st.sweep {
		id := tr.start(iter, root, "engine.Discover")
		d, err := e.Discover(aid)
		tr.end(id)
		if err != nil {
			return r, fmt.Errorf("sweep discover %s: %w", aid, err)
		}
		discs = append(discs, d)
	}
	r.sweep = time.Since(t4)
	tr.end(root)
	r.lookups = e.StoreStats().Store.Lookups - lookups

	r.fingerprint = fingerprint(e)
	var b strings.Builder
	for i, aid := range append([]nebula.AnnotationID{st.first}, st.sweep...) {
		d := d0
		if i > 0 {
			d = discs[i-1]
			r.queries += len(d.Queries)
		}
		fmt.Fprintf(&b, "%s:", aid)
		renderDiscovery(&b, d)
		b.WriteByte('\n')
	}
	r.answers = b.String()
	return r, nil
}

func runRecover(cfg config) (*outcome, error) {
	dir, err := scratchDir(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rep := 0
	st, setupS, err := timedSetup(func() (*recoverState, error) {
		rep++
		d := filepath.Join(dir, fmt.Sprintf("pristine%d", rep))
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		return buildRecover(cfg.seed, d)
	}, func(s *recoverState) {
		os.RemoveAll(s.dir)
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{header: map[string]any{
		"dataset":      "D_small",
		"genes":        st.ds.Config.Genes,
		"proteins":     st.ds.Config.Proteins,
		"publications": st.ds.Config.Publications,
		"storage":      "disk (segments)",
		"technique":    "symbol table",
		"ingest":       true,
		"load":         "sequential restarts",
		"clients":      1,
		"wal_tail":     len(st.tail),
		"wal_records":  st.walRecords,
		"sweep":        recoverSweep,
	}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var restarts, replays, restores, traced, untraced []float64
	var sweepRates []float64
	var last *restart
	var lastDir string
	var queries int
	var lookups uint64
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for iter := 0; iter < recoverMinIters || time.Now().Before(deadline); iter++ {
		if last != nil {
			if err := closeEngine(last.engine); err != nil {
				return nil, err
			}
			last = nil
			if err := os.RemoveAll(lastDir); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		idir := filepath.Join(dir, fmt.Sprintf("iter%d", iter))
		// Traced runs record spans on every other restart, so the run can
		// report its own tracing overhead.
		var t *tracer
		if iter%2 == 0 {
			t = tr
		}
		r, err := doRestart(st, idir, t, int64(iter))
		out.attempted += 1 + recoverSweep
		if err != nil {
			if r != nil {
				closeEngine(r.engine)
			}
			return nil, err
		}
		if r.fingerprint != st.fingerprint {
			out.mismatch("restart %d state differs from the writer's: %s", iter, firstDiff(r.fingerprint, st.fingerprint))
		}
		if r.answers != st.answers {
			out.mismatch("restart %d answers differ from the writer's: %s", iter, firstDiff(r.answers, st.answers))
		}
		restarts = append(restarts, ms(r.answer))
		replays = append(replays, ms(r.replay))
		restores = append(restores, ms(r.restore))
		if t != nil {
			traced = append(traced, ms(r.answer))
		} else {
			untraced = append(untraced, ms(r.answer))
		}
		sweepRates = append(sweepRates, float64(recoverSweep)/r.sweep.Seconds())
		queries += r.queries
		lookups += r.lookups
		// The restarted engine stays open until the next iteration (or
		// the heap measurement); its directory goes once it is closed.
		last, lastDir = r, idir
	}
	heap := liveHeapMB()
	runtime.KeepAlive(last.engine)
	out.header["restarts"] = len(restarts)
	out.header["replayed_records"] = last.replayRecords
	if !cfg.trace {
		out.metrics = map[string]metric{
			"setup_s":        {setupS, "s"},
			"heap_mb":        {heap, "MB"},
			"ops_per_s":      {median(sweepRates), "1/s"},
			"answer_p50_ms":  {median(restarts), "ms"},
			"answer_p90_ms":  {quantile(restarts, 0.9), "ms"},
			"write_p90_ms":   {quantile(replays, 0.9), "ms"},
			"visible_p50_ms": {median(restores), "ms"},
		}
		closeEngine(last.engine)
		return out, nil
	}

	lay := layers{}
	self := tr.selfTimes()
	lay["engine.call_restore_ms"] = median(self["engine.RestoreEngine"])
	lay["engine.call_recover_wal_ms"] = median(self["engine.RecoverWAL"])
	lay["engine.call_discover_ms"] = median(self["engine.Discover"])
	lay["wal.records_per_op"] = ratio(float64(st.walRecords), float64(len(st.tail)))
	ib, ia := st.ingestBefore, st.ingestAfter
	lay["ingest.rediscoveries_per_mutation"] = ratio(float64(ia.Rediscoveries-ib.Rediscoveries), float64(st.mutations))
	lay["ingest.coalesced_ratio"] = ratio(float64(ia.Coalesced-ib.Coalesced), float64(ia.Enqueued-ib.Enqueued))
	lay["ingest.queue_depth_max"] = float64(st.depthMax)
	lay["ingest.drain_ms"] = median(st.drainMS)
	lay["segment.lookups_per_query"] = ratio(float64(lookups), float64(queries))
	ss := last.engine.StoreStats()
	lay["segment.tail_postings"] = float64(ss.TailPostings)
	lay["segment.dirty_rows"] = float64(ss.DirtyRows)
	lay["acg.edges"] = float64(last.engine.Graph().Edges())
	if err := recoverShadow(st, last.engine, filepath.Join(dir, "shadow"), tr, lay, out); err != nil {
		closeEngine(last.engine)
		return nil, err
	}
	if err := closeEngine(last.engine); err != nil {
		return nil, err
	}
	// Snapshot layer: Load + Restore of the pristine checkpoint alone.
	var loads []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		snap, err := snapshot.LoadFile(filepath.Join(st.dir, "snap"))
		if err != nil {
			return nil, err
		}
		if _, err := snap.Restore(); err != nil {
			return nil, err
		}
		loads = append(loads, ms(time.Since(t)))
	}
	lay["snapshot.load_ms"] = median(loads)
	// The share is taken against a replay timed right before the replica,
	// so both see the host in the same state.
	extra, err := doRestart(st, filepath.Join(dir, "share"), nil, -1)
	if err != nil {
		if extra != nil {
			closeEngine(extra.engine)
		}
		return nil, err
	}
	if err := closeEngine(extra.engine); err != nil {
		return nil, err
	}
	submit, err := replaySubmitTime(st)
	if err != nil {
		return nil, err
	}
	lay["wal.replay_submit_share"] = ratio(ms(submit), ms(extra.replay))
	codec := filepath.Join(dir, "codec")
	if err := copyTree(filepath.Join(st.dir, "wal"), filepath.Join(codec, "wal")); err != nil {
		return nil, err
	}
	if err := lay.addWALCodec(filepath.Join(codec, "wal"), filepath.Join(codec, "scratch")); err != nil {
		return nil, err
	}
	lay["wal.replay_decode_share"] = ratio(lay["wal.decode_us"]/1e3*float64(last.replayRecords), median(replays))
	lay["trace.overhead_ms"] = median(traced) - median(untraced)
	if err := lay.finish(cfg, tr); err != nil {
		return nil, err
	}
	out.metrics = lay.metrics()
	return out, nil
}

// recoverShadow times Stages 1–2 of the sweep through the layers over the
// restarted engine's quiescent state, with the keyword technique served by
// a tiered engine over a fresh copy of the pristine segments (the rows the
// tail mutated marked dirty, as replay marks them), and times the segment
// lookups the sweep's queries make.
func recoverShadow(st *recoverState, e *nebula.Engine, dir string, tr *tracer, lay layers, out *outcome) error {
	if err := copyTree(filepath.Join(st.dir, "seg"), dir); err != nil {
		return err
	}
	store, err := segment.Open(dir, nil, nebula.DefaultStoreMaxSegments)
	if err != nil {
		return err
	}
	defer store.Close()
	tiered := keyword.NewTieredEngine(e.DB(), store, false)
	for _, op := range st.tail {
		if op.kind == opMutate {
			tiered.MarkDirty(relational.TupleID{Table: op.mut.table, Key: op.mut.key})
		}
	}
	opts := e.Options()
	opts.Cache = nebula.CacheConfig{Disabled: true}
	sh, err := newShadow(e.DB(), e.Meta(), nil, e.Graph(), opts, tr)
	if err != nil {
		return err
	}
	sh.searcher = func(db *relational.Database) keyword.Searcher {
		if db == e.DB() {
			return tiered
		}
		return keyword.NewSymbolTableEngine(db)
	}
	var lat []float64
	var lookups []float64
	for i, aid := range st.sweep {
		start := time.Now()
		d, err := e.DiscoverRequest(context.Background(), aid, nebula.RequestOptions{Cache: "off"})
		lat = append(lat, ms(time.Since(start)))
		if err != nil {
			return fmt.Errorf("shadow reference discover %s: %w", aid, err)
		}
		a, _ := e.Store().Get(aid)
		root := tr.start(int64(-1-i), -1, "shadow.discover")
		cands, _, err := sh.discover(int64(-1-i), root, a.Body, e.Store().Focal(aid))
		tr.end(root)
		if err != nil {
			return fmt.Errorf("shadow discover %s: %w", aid, err)
		}
		if !sameCandidates(d, cands) {
			out.mismatch("shadow pass candidates differ from the engine's for %s", aid)
		}
		for _, q := range d.Queries {
			for _, k := range q.Keywords {
				if k.Role != keyword.RoleValue {
					continue
				}
				t := time.Now()
				store.Lookup(strings.ToLower(k.Text), nil)
				lookups = append(lookups, float64(time.Since(t).Nanoseconds())/1e3)
			}
		}
	}
	lay.addShadow(sh, tr)
	lay["segment.lookup_us"] = median(lookups)
	mean := 0.0
	for _, v := range lat {
		mean += v
	}
	lay["engine.other_ms"] = mean/float64(len(lat)) - lay.stageSum()
	return nil
}

// replaySubmitTime estimates the share of WAL replay spent re-applying
// Stage-3 routing: it restores the pristine checkpoint, then re-applies the
// tail's annotation adds and times verification.Manager.Submit for each
// logged submission (other records are skipped: they do not feed Submit's
// inputs beyond the graph edges they add).
func replaySubmitTime(st *recoverState) (time.Duration, error) {
	snap, err := snapshot.LoadFile(filepath.Join(st.dir, "snap"))
	if err != nil {
		return 0, err
	}
	state, err := snap.Restore()
	if err != nil {
		return 0, err
	}
	bounds := verification.Bounds(nebula.DefaultOptions().Bounds)
	if state.HasBounds {
		bounds = verification.Bounds{Lower: state.BoundsLower, Upper: state.BoundsUpper}
	}
	m, err := verification.NewManager(state.Store, state.Graph, acg.NewProfile(), bounds)
	if err != nil {
		return 0, err
	}
	tuples := func(refs []wal.TupleRef) []relational.TupleID {
		out := make([]relational.TupleID, len(refs))
		for i, r := range refs {
			out[i] = relational.TupleID{Table: r.Table, Key: r.Key}
		}
		return out
	}
	var total time.Duration
	_, err = wal.Replay(filepath.Join(st.dir, "wal"), wal.ReplayConfig{FromSegment: snap.WALSegment}, func(r *wal.Record) error {
		switch r.Op {
		case wal.OpAddAnnotation:
			a := &annotation.Annotation{ID: annotation.ID(r.Ann), Author: r.Author, Body: r.Body, Kind: r.Kind}
			if err := state.Store.Add(a); err != nil {
				return err
			}
			for _, t := range tuples(r.AttachTo) {
				if _, err := state.Store.Attach(annotation.Attachment{Annotation: a.ID, Tuple: t, Type: annotation.TrueAttachment}); err != nil {
					return err
				}
			}
			state.Graph.AddAnnotation(a.ID, tuples(r.AttachTo))
		case wal.OpSubmit:
			cands := make([]discovery.Candidate, 0, len(r.Candidates))
			for _, c := range r.Candidates {
				row, ok := state.DB.Lookup(relational.TupleID{Table: c.Tuple.Table, Key: c.Tuple.Key})
				if !ok {
					return fmt.Errorf("replay: candidate %s not in database", c.Tuple)
				}
				cands = append(cands, discovery.Candidate{Tuple: row, Confidence: c.Confidence, Evidence: c.Evidence})
			}
			m.SetNextVID(r.FirstVID)
			submit := m.Submit
			if r.Degraded {
				submit = m.SubmitDegraded
			}
			start := time.Now()
			_, err := submit(annotation.ID(r.Ann), tuples(r.Focal), cands)
			total += time.Since(start)
			return err
		}
		return nil
	})
	return total, err
}
