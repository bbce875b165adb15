package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nebula"
	"nebula/internal/verification"
	"nebula/internal/workload"
)

// annotateClients is the closed loop's client count: two requests in flight
// on a two-vCPU host.
const annotateClients = 2

// annotateOp is one new annotation: AddAnnotation attached to focal, then
// Process. related is its ground truth.
type annotateOp struct {
	ann     *nebula.Annotation
	focal   []nebula.TupleID
	related []nebula.TupleID
}

// annotateState is one set-up of the annotate workload.
type annotateState struct {
	ds     *workload.Dataset
	engine *nebula.Engine
	walDir string
}

// controlOptions is the correctness gate's reference configuration: caches
// off, one worker, one shard, heap mode. Controls never get a WAL.
func controlOptions(o nebula.Options) nebula.Options {
	o.Cache = nebula.CacheConfig{Disabled: true}
	o.Parallelism = 1
	o.Shards = 1
	o.Store = nebula.StoreConfig{}
	return o
}

// annotateOps builds the operation stream: the dataset's 60 L^m × L_{i-j}
// workload annotations (the check prefix), then base-publication bodies in
// a seeded order under fresh IDs, each attached to its first related tuple.
func annotateOps(ds *workload.Dataset, seed int64) (prefix, stream []annotateOp) {
	for _, s := range ds.Workload {
		prefix = append(prefix, annotateOp{ann: s.Ann, focal: s.Focal(1), related: s.Related})
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for n, i := range rng.Perm(len(ds.Base)) {
		b := ds.Base[i]
		a := &nebula.Annotation{ID: nebula.AnnotationID(fmt.Sprintf("new:%05d:%s", n, b.Ann.ID)), Body: b.Ann.Body, Kind: b.Ann.Kind}
		stream = append(stream, annotateOp{ann: a, focal: b.Focal(1), related: b.Related})
	}
	return prefix, stream
}

// buildAnnotate generates D_mid and builds the measured engine: default
// options (heap mode, metadata technique, caches on) with a group-commit
// WAL.
func buildAnnotate(seed int64, walDir string) (*annotateState, error) {
	ds, err := workload.Generate(workload.MidConfig(datasetSeed))
	if err != nil {
		return nil, err
	}
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, nebula.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if err := attachWAL(e, walDir); err != nil {
		return nil, err
	}
	return &annotateState{ds: ds, engine: e, walDir: walDir}, nil
}

// checkPass runs the prefix single-client and returns its rendering, the
// discoveries, and each Process latency.
func checkPass(e *nebula.Engine, ops []annotateOp) (string, []*nebula.Discovery, []float64, error) {
	var b strings.Builder
	var discs []*nebula.Discovery
	var lat []float64
	for _, op := range ops {
		if err := e.AddAnnotation(op.ann, op.focal); err != nil {
			return "", nil, nil, fmt.Errorf("add %s: %w", op.ann.ID, err)
		}
		start := time.Now()
		d, out, err := e.Process(op.ann.ID)
		lat = append(lat, ms(time.Since(start)))
		if err != nil {
			return "", nil, nil, fmt.Errorf("process %s: %w", op.ann.ID, err)
		}
		fmt.Fprintf(&b, "%s:", op.ann.ID)
		renderDiscovery(&b, d)
		renderOutcome(&b, out)
		b.WriteByte('\n')
		discs = append(discs, d)
	}
	return b.String(), discs, lat, nil
}

func runAnnotate(cfg config) (*outcome, error) {
	dir, err := scratchDir(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rep := 0
	st, setupS, err := timedSetup(func() (*annotateState, error) {
		rep++
		return buildAnnotate(cfg.seed, filepath.Join(dir, fmt.Sprintf("wal%d", rep)))
	}, func(s *annotateState) {
		closeEngine(s.engine)
		os.RemoveAll(s.walDir)
	})
	if err != nil {
		return nil, err
	}
	e := st.engine
	defer closeEngine(e)
	prefix, stream := annotateOps(st.ds, cfg.seed)
	out := &outcome{header: map[string]any{
		"dataset":         "D_mid",
		"genes":           st.ds.Config.Genes,
		"proteins":        st.ds.Config.Proteins,
		"publications":    st.ds.Config.Publications,
		"storage":         "heap",
		"technique":       "metadata",
		"load":            "closed loop",
		"clients":         annotateClients,
		"check_prefix":    len(prefix),
		"stream_distinct": len(stream),
	}}

	// Correctness gate and priming: the prefix single-client on the measured
	// engine, then on a control engine from the same seed.
	got, discs, procLat, err := checkPass(e, prefix)
	if err != nil {
		return nil, err
	}
	var as []verification.Assessment
	oracle := verification.IdealOracle(st.ds.Ideal)
	for i, op := range prefix {
		as = append(as, verification.Assess(op.ann.ID, discs[i].Candidates, e.Bounds(), oracle, len(op.related), len(op.focal)))
	}
	quality := verification.Average(as)
	out.header["quality_fn"] = quality.FN
	out.header["quality_fp"] = quality.FP
	out.header["expert_load"] = quality.MF
	if err := annotateControl(cfg.seed, prefix, got, out); err != nil {
		return nil, err
	}
	runtime.GC()

	var tr *tracer
	lay := layers{}
	if cfg.trace {
		tr = newTracer()
		if err := annotateShadow(cfg.seed, prefix, discs, procLat, tr, lay, out); err != nil {
			return nil, err
		}
		lay["verification.quality_fn"] = quality.FN
		lay["verification.quality_fp"] = quality.FP
		lay["verification.expert_load"] = quality.MF
	}

	// Timed phase: a closed loop of annotateClients clients over the stream.
	// The traced run first spends half its time with one client, so it can
	// report what the second client adds.
	var one loopResult
	if cfg.trace {
		runtime.GC()
		one = closedLoop(e, stream, 1, cfg.seconds/2, tr)
		stream = stream[one.next:]
		out.failed += one.failed
		out.attempted += one.attempted
	}
	runtime.GC()
	before := readCounters(e)
	secs := cfg.seconds
	if cfg.trace {
		secs /= 2
	}
	res := closedLoop(e, stream, annotateClients, secs, tr)
	after := readCounters(e)
	heap := liveHeapMB()
	runtime.KeepAlive(e)
	out.attempted += len(prefix) + res.attempted
	out.failed += res.failed
	out.header["samples"] = len(res.total)
	out.header["add_p50_ms"] = median(res.add)
	out.header["add_p90_ms"] = quantile(res.add, 0.9)
	if res.attempted >= len(stream) {
		out.mismatch("stream of %d distinct annotations exhausted; raise the dataset or shorten --seconds", len(stream))
	}
	if !cfg.trace {
		out.metrics = map[string]metric{
			"setup_s":        {setupS, "s"},
			"heap_mb":        {heap, "MB"},
			"ops_per_s":      {res.rate(), "1/s"},
			"answer_p50_ms":  {median(res.total), "ms"},
			"answer_p90_ms":  {quantile(res.total, 0.9), "ms"},
			"write_p90_ms":   {quantile(res.process, 0.9), "ms"},
			"visible_p50_ms": {median(res.process), "ms"},
		}
		return out, nil
	}
	lay.addCounters(before, after, len(res.total), len(res.total))
	lay["acg.edges"] = float64(e.Graph().Edges())
	lay["engine.call_add_ms"] = median(res.add)
	lay["engine.call_process_ms"] = median(res.process)
	lay["trace.overhead_ms"] = median(res.tracedTotal) - median(res.untracedTotal)
	lay["engine.one_client_per_s"] = one.rate()
	lay["engine.two_client_per_s"] = res.rate()
	if err := closeEngine(e); err != nil {
		return nil, err
	}
	if err := lay.addWALCodec(st.walDir, filepath.Join(dir, "walcodec")); err != nil {
		return nil, err
	}
	if err := lay.finish(cfg, tr); err != nil {
		return nil, err
	}
	out.metrics = lay.metrics()
	return out, nil
}

// annotateControl replays the prefix on a control engine over a fresh copy
// of the same dataset and compares the renderings byte for byte.
func annotateControl(seed int64, prefix []annotateOp, got string, out *outcome) error {
	ds, err := workload.Generate(workload.MidConfig(datasetSeed))
	if err != nil {
		return err
	}
	c, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, controlOptions(nebula.DefaultOptions()))
	if err != nil {
		return err
	}
	want, _, _, err := checkPass(c, prefix)
	if err != nil {
		return fmt.Errorf("control: %w", err)
	}
	if got != want {
		out.mismatch("annotate prefix differs from the control engine: %s", firstDiff(got, want))
	}
	return nil
}

// annotateShadow runs the prefix through the layers directly on a third
// copy of the dataset, checks its candidates against the engine's, and
// derives engine.other_ms as the single-client Process latency not covered
// by the Stage 1–3 self times.
func annotateShadow(seed int64, prefix []annotateOp, discs []*nebula.Discovery, procLat []float64, tr *tracer, lay layers, out *outcome) error {
	ds, err := workload.Generate(workload.MidConfig(datasetSeed))
	if err != nil {
		return err
	}
	sh, err := newShadow(ds.DB, ds.Meta, ds.Store, ds.Graph, nebula.DefaultOptions(), tr)
	if err != nil {
		return err
	}
	for i, op := range prefix {
		if err := sh.add(op.ann, op.focal); err != nil {
			return fmt.Errorf("shadow add %s: %w", op.ann.ID, err)
		}
		cands, _, err := sh.process(int64(-1-i), op.ann, op.focal)
		if err != nil {
			return fmt.Errorf("shadow process %s: %w", op.ann.ID, err)
		}
		if !sameCandidates(discs[i], cands) {
			out.mismatch("shadow pass candidates differ from the engine's for %s", op.ann.ID)
		}
	}
	lay.addShadow(sh, tr)
	mean := 0.0
	for _, v := range procLat {
		mean += v
	}
	mean /= float64(len(procLat))
	lay["engine.process_ms"] = mean
	lay["engine.other_ms"] = mean - lay.stageSum()
	return nil
}

// loopResult is what the closed loop measured.
type loopResult struct {
	attempted, failed int
	next              int // stream index after the last operation issued
	elapsed           time.Duration
	// Per completed operation, in ms.
	total, add, process []float64
	// Round trips of traced and untraced operations (traced runs only).
	tracedTotal, untracedTotal []float64
}

// rate is the completed operations per second.
func (r loopResult) rate() float64 { return ratio(float64(len(r.total)), r.elapsed.Seconds()) }

// closedLoop runs clients clients, each sending its next
// AddAnnotation+Process only after the previous returned, until seconds
// have passed. With a tracer, spans are recorded for every other operation
// so the run can report its own tracing overhead.
func closedLoop(e *nebula.Engine, stream []annotateOp, clients int, seconds float64, tr *tracer) loopResult {
	var next atomic.Int64
	var mu sync.Mutex
	var res loopResult
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if int(i) >= len(stream) {
					return
				}
				op := stream[i]
				traced := tr != nil && i%2 == 0
				var t *tracer
				if traced {
					t = tr
				}
				root := t.start(i, -1, "op.annotate")
				t0 := time.Now()
				id := t.start(i, root, "engine.AddAnnotation")
				err := e.AddAnnotation(op.ann, op.focal)
				t.end(id)
				t1 := time.Now()
				if err == nil {
					id = t.start(i, root, "engine.Process")
					_, _, err = e.Process(op.ann.ID)
					t.end(id)
				}
				t2 := time.Now()
				t.end(root)
				mu.Lock()
				res.attempted++
				res.next = max(res.next, int(i)+1)
				if err != nil {
					res.failed++
					fmt.Fprintf(os.Stderr, "perfbench: annotate %s: %v\n", op.ann.ID, err)
				} else {
					res.total = append(res.total, ms(t2.Sub(t0)))
					res.add = append(res.add, ms(t1.Sub(t0)))
					res.process = append(res.process, ms(t2.Sub(t1)))
					if tr != nil && traced {
						res.tracedTotal = append(res.tracedTotal, ms(t2.Sub(t0)))
					} else if tr != nil {
						res.untracedTotal = append(res.untracedTotal, ms(t2.Sub(t0)))
					}
				}
				res.elapsed = time.Since(start)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}
