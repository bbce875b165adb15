package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"nebula"
	"nebula/internal/workload"
)

// Curate workload parameters. The offered rate is about half the rate at
// which this mix saturates a two-vCPU host (see README.md); the mutation
// share and drain cadence keep the ingest backlog bounded at that rate.
const (
	curateRate       = 20.0                  // offered requests per second
	curateClients    = 2                     // requests in flight at most
	curateDrainEvery = 50 * time.Millisecond // background drain cadence
	curateDrainMax   = 2                     // jobs per background drain
	curatePrefix     = 150                   // ops in the correctness gate
	curatePrefixTick = 10                    // prefix ops per inline drain
	curateHot        = 64                    // reads primed into the cache
	// The mix: per block of curateBlock requests, these many adds,
	// mutations and verdicts; the rest are reads.
	curateBlock          = 50
	curateBlockAdds      = 5
	curateBlockMutations = 1
	curateBlockVerdicts  = 10
	// curateAddPriority ranks user-submitted annotations above the CDC
	// re-discoveries (priority 0) in the drain order.
	curateAddPriority = 1
	// Steadiness bounds: generator lateness (p99) and backlog growth.
	curateLatenessBoundMS = 20.0
)

type opKind int

const (
	opRead opKind = iota
	opAdd
	opMutate
	opVerdict
)

func (k opKind) String() string {
	return [...]string{"read", "add", "mutate", "verdict"}[k]
}

// mutation is one row update on an attached tuple.
type mutation struct {
	table, key, column string
	value              nebula.Value
}

// curateOp is one request of the curate mix.
type curateOp struct {
	kind   opKind
	target nebula.AnnotationID // read target
	ann    *nebula.Annotation  // async add
	focal  []nebula.TupleID
	mut    mutation
	accept bool // verdict: accept (else reject) the client's oldest task
}

// curateOps generates n requests of the curate mix from seed: Zipf-skewed
// Discover reads over the stored publications, async adds of publication
// bodies under fresh IDs, row updates on attached tuples chosen uniformly,
// and verdicts. Every block of curateBlock requests holds exactly the mix's
// counts in a seeded order, so runs of different seeds do the same kinds
// of work.
func curateOps(ds *workload.Dataset, seed int64, n int, idPrefix string) []curateOp {
	rng := rand.New(rand.NewSource(seed ^ 0xc0ffee))
	readOrder := rng.Perm(len(ds.Base))
	zipf := rand.NewZipf(rng, 1.1, 8, uint64(len(ds.Base)-1))
	var attached []nebula.TupleID
	for _, t := range ds.Store.AnnotatedTuples() {
		if t.Table == "Gene" || t.Table == "Protein" {
			attached = append(attached, t)
		}
	}
	block := make([]opKind, 0, curateBlock)
	for k, count := range []int{opAdd: curateBlockAdds, opMutate: curateBlockMutations, opVerdict: curateBlockVerdicts} {
		for j := 0; j < count; j++ {
			block = append(block, opKind(k))
		}
	}
	for len(block) < curateBlock {
		block = append(block, opRead)
	}
	ops := make([]curateOp, 0, n)
	for i := 0; i < n; i++ {
		if i%curateBlock == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		switch block[i%curateBlock] {
		case opAdd:
			b := ds.Base[rng.Intn(len(ds.Base))]
			a := &nebula.Annotation{ID: nebula.AnnotationID(fmt.Sprintf("%s%06d:%s", idPrefix, i, b.Ann.ID)), Body: b.Ann.Body, Kind: b.Ann.Kind}
			ops = append(ops, curateOp{kind: opAdd, ann: a, focal: b.Focal(1)})
		case opMutate:
			t := attached[rng.Intn(len(attached))]
			m := mutation{table: t.Table, key: t.Key}
			if t.Table == "Gene" {
				m.column, m.value = "Length", nebula.Int(int64(500+i))
			} else {
				m.column, m.value = "PType", nebula.String(fmt.Sprintf("enzyme-m%d", i))
			}
			ops = append(ops, curateOp{kind: opMutate, mut: m})
		case opVerdict:
			ops = append(ops, curateOp{kind: opVerdict, accept: rng.Intn(2) == 0})
		default:
			b := ds.Base[readOrder[zipf.Uint64()]]
			ops = append(ops, curateOp{kind: opRead, target: b.Ann.ID})
		}
	}
	return ops
}

// errNoTask reports a verdict with no pending task of its own client.
var errNoTask = errors.New("no pending task owned by this client")

// client is one request issuer. A verdict resolves only tasks of
// annotations this client added (or was assigned at set-up), so two
// clients never race for the same task.
type client struct {
	owned map[nebula.AnnotationID]bool
}

// curator executes curate requests against one engine. verdictMu orders a
// verdict's task lookup and resolution against drains, which retract and
// recreate tasks; nothing else takes it.
type curator struct {
	e         *nebula.Engine
	clients   []*client
	verdictMu sync.Mutex
}

func newCurator(e *nebula.Engine, seeded []nebula.AnnotationID) *curator {
	c := &curator{e: e}
	for i := 0; i < curateClients; i++ {
		c.clients = append(c.clients, &client{owned: map[nebula.AnnotationID]bool{}})
	}
	for i, id := range seeded {
		c.clients[i%curateClients].owned[id] = true
	}
	return c
}

// exec runs one request as client cl and renders its result into b (nil
// to skip rendering).
func (c *curator) exec(cl *client, op curateOp, b *strings.Builder) error {
	switch op.kind {
	case opRead:
		d, err := c.e.Discover(op.target)
		if err != nil {
			return err
		}
		if b != nil {
			fmt.Fprintf(b, "read %s:", op.target)
			renderDiscovery(b, d)
		}
	case opAdd:
		adm, err := c.e.AddAnnotationAsync(op.ann, op.focal, curateAddPriority)
		if err != nil {
			return err
		}
		cl.owned[op.ann.ID] = true
		if b != nil {
			fmt.Fprintf(b, "add %s seq=%d pos=%d", op.ann.ID, adm.Seq, adm.Position)
		}
	case opMutate:
		m := op.mut
		err := c.e.MutateDB(func(db *nebula.Database) error {
			return db.MustTable(m.table).UpdateByKey(m.key, m.column, m.value)
		})
		if err != nil {
			return err
		}
		if b != nil {
			fmt.Fprintf(b, "mutate %s/%s.%s", m.table, m.key, m.column)
		}
	case opVerdict:
		c.verdictMu.Lock()
		defer c.verdictMu.Unlock()
		var task *nebula.VerificationTask
		for _, t := range c.e.PendingTasks() {
			if cl.owned[t.Annotation] {
				task = t
				break
			}
		}
		if task == nil {
			return errNoTask
		}
		var err error
		if op.accept {
			err = c.e.VerifyAttachment(task.VID)
		} else {
			err = c.e.RejectAttachment(task.VID)
		}
		if err != nil {
			return err
		}
		if b != nil {
			fmt.Fprintf(b, "verdict v%d accept=%v", task.VID, op.accept)
		}
	}
	return nil
}

// drain drains up to max queued jobs (0 = all), ordered against verdicts.
func (c *curator) drain(max int) (nebula.IngestDrainResult, error) {
	c.verdictMu.Lock()
	defer c.verdictMu.Unlock()
	return c.e.DrainIngest(context.Background(), max)
}

// curateOptions is the measured engine's configuration for a dataset:
// default options with the ingest pipeline on and a queue cap with ample
// headroom over everything the run can queue.
func curateOptions(ds *workload.Dataset, ops int) nebula.Options {
	o := nebula.DefaultOptions()
	o.Ingest = nebula.IngestConfig{Enabled: true, QueueCap: 4 * (ds.Store.Len() + len(ds.Workload) + ops)}
	return o
}

// primeCurate adds and processes the dataset's workload annotations (so
// verdicts have pending tasks from the start) and warms the cache with the
// hottest reads. It returns the primed annotation IDs.
func primeCurate(e *nebula.Engine, ds *workload.Dataset, ops []curateOp) ([]nebula.AnnotationID, error) {
	var ids []nebula.AnnotationID
	for _, s := range ds.Workload {
		if err := e.AddAnnotation(s.Ann, s.Focal(1)); err != nil {
			return nil, fmt.Errorf("prime add %s: %w", s.Ann.ID, err)
		}
		if _, _, err := e.Process(s.Ann.ID); err != nil {
			return nil, fmt.Errorf("prime process %s: %w", s.Ann.ID, err)
		}
		ids = append(ids, s.Ann.ID)
	}
	seen := map[nebula.AnnotationID]bool{}
	for _, op := range ops {
		if op.kind != opRead || seen[op.target] {
			continue
		}
		if len(seen) == curateHot {
			break
		}
		seen[op.target] = true
		if _, err := e.Discover(op.target); err != nil {
			return nil, fmt.Errorf("prime read %s: %w", op.target, err)
		}
	}
	return ids, nil
}

// curatePass runs ops single-client (client i%2 issues op i) with an
// inline drain every curatePrefixTick ops and a final flush, and renders
// every result plus the final state fingerprint.
func curatePass(c *curator, ops []curateOp) (string, error) {
	var b strings.Builder
	for i, op := range ops {
		if err := c.exec(c.clients[i%curateClients], op, &b); err != nil {
			return "", fmt.Errorf("prefix op %d (%s): %w", i, op.kind, err)
		}
		b.WriteByte('\n')
		if (i+1)%curatePrefixTick == 0 {
			if _, err := c.drain(0); err != nil {
				return "", err
			}
		}
	}
	if _, err := c.e.FlushIngest(context.Background()); err != nil {
		return "", err
	}
	b.WriteString(fingerprint(c.e))
	return b.String(), nil
}

// curateState is one set-up of the curate workload.
type curateState struct {
	ds     *workload.Dataset
	engine *nebula.Engine
	cur    *curator
	walDir string
}

func buildCurate(seed int64, ops []curateOp, walDir string, control bool) (*curateState, error) {
	ds, err := workload.Generate(workload.SmallConfig(datasetSeed))
	if err != nil {
		return nil, err
	}
	opts := curateOptions(ds, len(ops))
	if control {
		opts = controlOptions(opts)
	}
	e, err := nebula.NewWithState(ds.DB, ds.Meta, ds.Store, ds.Graph, opts)
	if err != nil {
		return nil, err
	}
	if !control {
		if err := attachWAL(e, walDir); err != nil {
			return nil, err
		}
	}
	seeded, err := primeCurate(e, ds, ops)
	if err != nil {
		return nil, err
	}
	return &curateState{ds: ds, engine: e, cur: newCurator(e, seeded), walDir: walDir}, nil
}

func runCurate(cfg config) (*outcome, error) {
	dir, err := scratchDir(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Inputs: the prefix plus twice the ops the offered rate needs.
	nOps := curatePrefix + int(2*curateRate*cfg.seconds) + 100
	sizing, err := workload.Generate(workload.SmallConfig(datasetSeed))
	if err != nil {
		return nil, err
	}
	ops := curateOps(sizing, cfg.seed, nOps, "cur:")
	sizing = nil
	rep := 0
	st, setupS, err := timedSetup(func() (*curateState, error) {
		rep++
		return buildCurate(cfg.seed, ops, filepath.Join(dir, fmt.Sprintf("wal%d", rep)), false)
	}, func(s *curateState) {
		closeEngine(s.engine)
		os.RemoveAll(s.walDir)
	})
	if err != nil {
		return nil, err
	}
	e := st.engine
	defer closeEngine(e)
	out := &outcome{header: map[string]any{
		"dataset":        "D_small",
		"genes":          st.ds.Config.Genes,
		"proteins":       st.ds.Config.Proteins,
		"publications":   st.ds.Config.Publications,
		"storage":        "heap",
		"technique":      "metadata",
		"ingest":         true,
		"load":           "open loop",
		"offered_rate":   curateRate,
		"clients":        curateClients,
		"drain_every_ms": curateDrainEvery.Milliseconds(),
		"drain_max_jobs": curateDrainMax,
		"mix":            fmt.Sprintf("per %d requests: %d adds, %d mutations, %d verdicts, rest reads", curateBlock, curateBlockAdds, curateBlockMutations, curateBlockVerdicts),
		"check_prefix":   curatePrefix,
	}}

	// Correctness gate: the prefix single-client on the measured engine and
	// on a control engine built the same way from the same seed.
	got, err := curatePass(st.cur, ops[:curatePrefix])
	if err != nil {
		return nil, err
	}
	ctl, err := buildCurate(cfg.seed, ops, "", true)
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	want, err := curatePass(ctl.cur, ops[:curatePrefix])
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	if got != want {
		out.mismatch("curate prefix differs from the control engine: %s", firstDiff(got, want))
	}
	ctl = nil

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	runtime.GC()
	before := readCounters(e)
	res := openLoop(st.cur, ops[curatePrefix:], curateRate, cfg.seconds, tr)
	after := readCounters(e)
	heap := liveHeapMB()
	runtime.KeepAlive(e)
	out.attempted = curatePrefix + res.attempted
	out.failed = res.failed
	steady := res.lateP99 <= curateLatenessBoundMS && res.backlogBounded()
	out.header["steady"] = steady
	out.header["lateness_p99_ms"] = res.lateP99
	out.header["backlog_trough_second_quarter"] = res.backlogTrough(1)
	out.header["backlog_trough_last_quarter"] = res.backlogTrough(3)
	out.header["read_samples"] = len(res.reads)
	out.header["write_samples"] = len(res.writes)
	out.header["freshness_samples"] = len(res.fresh)
	out.header["write_p50_ms"] = median(res.writes)
	if !steady {
		fmt.Fprintf(os.Stderr, "perfbench: curate run not steady: lateness p99 %.2f ms (bound %.0f), backlog trough %d -> %d\n",
			res.lateP99, curateLatenessBoundMS, res.backlogTrough(1), res.backlogTrough(3))
	}
	if !cfg.trace {
		out.metrics = map[string]metric{
			"setup_s":        {setupS, "s"},
			"heap_mb":        {heap, "MB"},
			"ops_per_s":      {float64(res.completed) / res.elapsed.Seconds(), "1/s"},
			"answer_p50_ms":  {median(res.reads), "ms"},
			"answer_p90_ms":  {quantile(res.reads, 0.9), "ms"},
			"write_p90_ms":   {quantile(res.writes, 0.9), "ms"},
			"visible_p50_ms": {median(res.fresh), "ms"},
		}
		return out, nil
	}
	lay := layers{}
	writes := res.byKind[opAdd] + res.byKind[opMutate] + res.byKind[opVerdict]
	lay.addCounters(before, after, res.completed, writes)
	lay["acg.edges"] = float64(e.Graph().Edges())
	lay["ingest.rediscoveries_per_mutation"] = ratio(float64(after.ingest.Rediscoveries-before.ingest.Rediscoveries), float64(res.byKind[opMutate]))
	lay["ingest.coalesced_ratio"] = ratio(float64(after.ingest.Coalesced-before.ingest.Coalesced), float64(after.ingest.Enqueued-before.ingest.Enqueued))
	lay["ingest.queue_depth_max"] = float64(res.depthMax)
	lay["ingest.drain_ms"] = median(res.drainMS)
	lay["loadgen.lateness_ms"] = res.lateP99
	self := tr.selfTimes()
	lay["engine.call_discover_ms"] = median(self["engine.Discover"])
	lay["engine.call_add_async_ms"] = median(self["engine.AddAnnotationAsync"])
	lay["engine.call_mutate_ms"] = median(self["engine.MutateDB"])
	lay["engine.call_verdict_ms"] = median(self["engine.Verdict"])
	lay["trace.overhead_ms"] = median(res.tracedReads) - median(res.untracedReads)
	if err := curateShadow(e, ops, tr, lay, out); err != nil {
		return nil, err
	}
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

// curateShadow times Stages 1–2 of a cache-miss read: for a sample of read
// targets it runs the engine's Discover with the cache off, and the same
// discovery through the layers over the engine's own (quiescent) state.
func curateShadow(e *nebula.Engine, ops []curateOp, tr *tracer, lay layers, out *outcome) error {
	opts := e.Options()
	opts.Cache = nebula.CacheConfig{Disabled: true}
	sh, err := newShadow(e.DB(), e.Meta(), nil, e.Graph(), opts, tr)
	if err != nil {
		return err
	}
	seen := map[nebula.AnnotationID]bool{}
	var lat []float64
	for _, op := range ops {
		if op.kind != opRead || seen[op.target] {
			continue
		}
		if len(seen) == 40 {
			break
		}
		seen[op.target] = true
		start := time.Now()
		d, err := e.DiscoverRequest(context.Background(), op.target, nebula.RequestOptions{Cache: "off"})
		lat = append(lat, ms(time.Since(start)))
		if err != nil {
			return fmt.Errorf("shadow reference discover %s: %w", op.target, err)
		}
		a, _ := e.Store().Get(op.target)
		root := tr.start(int64(-1-len(seen)), -1, "shadow.discover")
		cands, _, err := sh.discover(int64(-1-len(seen)), root, a.Body, e.Store().Focal(op.target))
		tr.end(root)
		if err != nil {
			return fmt.Errorf("shadow discover %s: %w", op.target, err)
		}
		if !sameCandidates(d, cands) {
			out.mismatch("shadow pass candidates differ from the engine's for %s", op.target)
		}
	}
	lay.addShadow(sh, tr)
	mean := 0.0
	for _, v := range lat {
		mean += v
	}
	lay["engine.other_ms"] = mean/float64(len(lat)) - lay.stageSum()
	return nil
}

// openResult is what the open loop measured.
type openResult struct {
	attempted, failed, completed int
	elapsed                      time.Duration
	byKind                       map[opKind]int
	reads, writes, fresh         []float64
	tracedReads, untracedReads   []float64
	lateP99                      float64
	depth                        []depthSample
	depthMax                     int
	drainMS                      []float64
}

type depthSample struct {
	at    float64 // fraction of the run
	depth int
}

// backlogTrough is the smallest queue depth sampled before a drain in
// quarter q (0..3) of the run: the backlog left between the bursts that
// mutations' CDC fan-outs bring.
func (r openResult) backlogTrough(q int) int {
	trough := -1
	for _, s := range r.depth {
		if int(s.at*4) == q && (trough < 0 || s.depth < trough) {
			trough = s.depth
		}
	}
	return trough
}

// backlogBounded reports whether the backlog did not grow: the trough of
// the last quarter is no higher than the second quarter's plus one drain.
func (r openResult) backlogBounded() bool {
	return r.backlogTrough(3) <= r.backlogTrough(1)+curateDrainMax
}

// openLoop issues ops at rate per second from a schedule fixed in advance, with
// curateClients requests in flight at most and a background drainer, for
// seconds. Latency counts from each request's due time.
func openLoop(c *curator, ops []curateOp, rate, seconds float64, tr *tracer) openResult {
	res := openResult{byKind: map[opKind]int{}}
	interval := time.Duration(float64(time.Second) / rate)
	dur := time.Duration(seconds * float64(time.Second))
	n := int(dur / interval)
	if n > len(ops) {
		n = len(ops)
	}
	type job struct {
		i   int
		due time.Time
	}
	// Sized to every scheduled request, so the generator never blocks on
	// busy clients: a stall shows up as latency from the due time.
	queue := make(chan job, n)
	var mu sync.Mutex
	admitted := map[nebula.AnnotationID]time.Time{}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < curateClients; w++ {
		cl := c.clients[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				op := ops[j.i]
				traced := tr != nil && j.i%2 == 0
				var t *tracer
				if traced {
					t = tr
				}
				name := map[opKind]string{opRead: "engine.Discover", opAdd: "engine.AddAnnotationAsync", opMutate: "engine.MutateDB", opVerdict: "engine.Verdict"}[op.kind]
				id := t.start(int64(j.i), -1, name)
				admittedAt := time.Now()
				err := c.exec(cl, op, nil)
				t.end(id)
				done := time.Now()
				mu.Lock()
				res.attempted++
				res.byKind[op.kind]++
				if err != nil {
					res.failed++
					fmt.Fprintf(os.Stderr, "perfbench: curate op %d (%s): %v\n", j.i, op.kind, err)
				} else {
					res.completed++
					l := ms(done.Sub(j.due))
					if op.kind == opRead {
						res.reads = append(res.reads, l)
						if tr != nil && traced {
							res.tracedReads = append(res.tracedReads, l)
						} else if tr != nil {
							res.untracedReads = append(res.untracedReads, l)
						}
					} else {
						res.writes = append(res.writes, l)
					}
					if op.kind == opAdd {
						admitted[op.ann.ID] = admittedAt
					}
				}
				res.elapsed = done.Sub(start)
				mu.Unlock()
			}
		}()
	}

	stop := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		tick := time.NewTicker(curateDrainEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			// Snapshot the admissions before reading the queue: an
			// annotation admitted after the snapshot is not judged yet.
			mu.Lock()
			pending := make(map[nebula.AnnotationID]time.Time, len(admitted))
			for id, t := range admitted {
				pending[id] = t
			}
			mu.Unlock()
			depth := c.e.IngestStats().QueueDepth
			ds := time.Now()
			id := tr.start(-1, -1, "engine.DrainIngest")
			_, err := c.drain(curateDrainMax)
			tr.end(id)
			de := time.Now()
			queued := map[nebula.AnnotationID]bool{}
			for _, j := range c.e.IngestJobs() {
				queued[j.Annotation] = true
			}
			mu.Lock()
			if err != nil {
				res.failed++
				fmt.Fprintf(os.Stderr, "perfbench: curate drain: %v\n", err)
			}
			res.depth = append(res.depth, depthSample{at: float64(ds.Sub(start)) / float64(dur), depth: depth})
			res.depthMax = max(res.depthMax, depth)
			res.drainMS = append(res.drainMS, ms(de.Sub(ds)))
			for aid, t := range pending {
				if !queued[aid] {
					res.fresh = append(res.fresh, ms(de.Sub(t)))
					delete(admitted, aid)
				}
			}
			mu.Unlock()
		}
	}()

	var late []float64
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, ms(time.Since(due)))
		queue <- job{i: i, due: due}
	}
	close(queue)
	wg.Wait()
	close(stop)
	<-drained
	res.lateP99 = quantile(late, 0.99)
	return res
}
