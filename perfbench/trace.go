package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"nebula"
	"nebula/internal/acg"
	"nebula/internal/annotation"
	"nebula/internal/discovery"
	"nebula/internal/keyword"
	"nebula/internal/meta"
	"nebula/internal/relational"
	"nebula/internal/sigmap"
	"nebula/internal/textutil"
	"nebula/internal/verification"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Trace; Parent is the index of the causing span, or -1.
type span struct {
	Trace  int64   `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer holds spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() float64 { return ms(time.Since(t.base)) }

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(trace int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// record adds a completed span with a measured duration.
func (t *tracer) record(trace int64, parent int, name string, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	s := ms(start.Sub(t.base))
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: s, End: s + ms(d)})
	return id
}

// selfTimes returns, per span name, the self time of every span with that
// name: its duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.ms()-covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, curS, curE := 0.0, -1.0, -1.0
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	return total + curE - curS
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shadow runs Stages 1–3 by calling the layers directly on the same inputs
// the engine sees, with a span around every exported call. It must produce
// the engine's candidates, so its spans time the engine's work.
type shadow struct {
	db    *relational.Database
	repo  *meta.Repository
	store *annotation.Store
	graph *acg.Graph
	// manager is nil for discover-only shadows.
	manager *verification.Manager
	opts    nebula.Options
	qcache  *keyword.QueryCache
	// searcher builds the keyword technique for a database; nil selects
	// the metadata engine configured like the engine's.
	searcher func(*relational.Database) keyword.Searcher
	tr       *tracer

	// Totals over every shadow run.
	runs       int
	queries    int
	exec       keyword.ExecStats
	candidates int
	accepted   int
	pending    int
	rejected   int
}

// newShadow builds a shadow over its own copy of the state, with the
// engine's cache configuration (scan cache and structured-query cache).
func newShadow(db *relational.Database, repo *meta.Repository, store *annotation.Store, graph *acg.Graph, opts nebula.Options, tr *tracer) (*shadow, error) {
	s := &shadow{db: db, repo: repo, store: store, graph: graph, opts: opts, tr: tr}
	if store != nil {
		m, err := verification.NewManager(store, graph, acg.NewProfile(), verification.Bounds(opts.Bounds))
		if err != nil {
			return nil, err
		}
		s.manager = m
	}
	if !opts.Cache.Disabled {
		per := int64(nebula.DefaultCacheBytes) / 3
		if opts.Cache.MaxBytes > 0 {
			per = opts.Cache.MaxBytes / 3
		}
		db.EnableScanCache(per)
		s.qcache = keyword.NewQueryCache(per)
	}
	return s, nil
}

// timedSearcher wraps a keyword technique with a span per execution call.
type timedSearcher struct {
	keyword.Searcher
	tr     *tracer
	trace  int64
	parent int
}

func (t timedSearcher) Execute(q keyword.Query) ([]keyword.Result, keyword.ExecStats, error) {
	id := t.tr.start(t.trace, t.parent, "keyword.execute")
	defer t.tr.end(id)
	return t.Searcher.Execute(q)
}

func (t timedSearcher) ExecuteBatch(qs []keyword.Query, shared bool) (map[string][]keyword.Result, keyword.ExecStats, error) {
	id := t.tr.start(t.trace, t.parent, "keyword.execute")
	defer t.tr.end(id)
	return t.Searcher.ExecuteBatch(qs, shared)
}

func (t timedSearcher) ExecuteBatchContext(ctx context.Context, qs []keyword.Query, shared bool, lim keyword.Limits) (map[string][]keyword.Result, keyword.ExecStats, error) {
	id := t.tr.start(t.trace, t.parent, "keyword.execute")
	defer t.tr.end(id)
	return t.Searcher.ExecuteBatchContext(ctx, qs, shared, lim)
}

// add mirrors AddAnnotation on the shadow's own store and graph.
func (s *shadow) add(a *annotation.Annotation, focal []relational.TupleID) error {
	if err := s.store.Add(a); err != nil {
		return err
	}
	for _, t := range focal {
		if _, err := s.store.Attach(annotation.Attachment{Annotation: a.ID, Tuple: t, Type: annotation.TrueAttachment}); err != nil {
			return err
		}
	}
	s.graph.AddAnnotation(a.ID, focal)
	return nil
}

// discover runs Stages 1–2 under root span parent and returns the
// candidates and whether the run degraded.
func (s *shadow) discover(trace int64, parent int, body string, focal []relational.TupleID) ([]discovery.Candidate, bool, error) {
	gen := sigmap.NewGenerator(s.repo, s.opts.Epsilon)
	gen.Alpha = s.opts.Alpha

	id := s.tr.start(trace, parent, "sigmap.map")
	tokens := textutil.Tokenize(body)
	cmap := gen.ConceptMap(tokens)
	vmap := gen.ValueMap(tokens)
	s.tr.end(id)
	id = s.tr.start(trace, parent, "sigmap.adjust")
	cm := sigmap.Overlay(tokens, cmap, vmap)
	gen.ContextBasedAdjustment(cm)
	s.tr.end(id)
	id = s.tr.start(trace, parent, "sigmap.form")
	queries := gen.ConceptMapToQueries(cm)
	s.tr.end(id)

	d := discovery.New(s.db, s.repo, s.graph)
	d.IncludeRelated = s.opts.IncludeRelated
	d.Uncached = s.opts.Cache.Disabled
	if !d.Uncached {
		d.Cache = s.qcache
	}
	ident := s.tr.start(trace, parent, "discovery.identify")
	d.NewSearcher = func(db *relational.Database) keyword.Searcher {
		var inner keyword.Searcher
		if s.searcher != nil {
			inner = s.searcher(db)
		} else {
			e := keyword.NewEngine(db, s.repo)
			e.IncludeRelated = d.IncludeRelated
			e.Uncached = d.Uncached
			if db == s.db {
				e.Cache = d.Cache
			}
			inner = e
		}
		return timedSearcher{Searcher: inner, tr: s.tr, trace: trace, parent: ident}
	}
	workers := s.opts.Parallelism
	if workers == 0 {
		workers = numCPU
	}
	cands, stats, err := d.IdentifyRelatedTuplesContext(context.Background(), queries, focal, discovery.Options{
		Shared:          s.opts.SharedExecution,
		FocalAdjustment: s.opts.FocalAdjustment,
		AdjustmentHops:  s.opts.AdjustmentHops,
		Spreading:       s.opts.Spreading,
		K:               s.opts.SpreadingK,
		RequireStable:   s.opts.RequireStableACG,
		SpamFraction:    s.opts.SpamFraction,
		MaxWorkers:      workers,
		Retry:           s.opts.Retry,
		Plan:            s.opts.Plan,
		TopK:            s.opts.TopK,
	})
	s.tr.end(ident)
	if err != nil {
		return nil, false, err
	}
	s.runs++
	s.queries += len(queries)
	s.exec.Add(stats.Exec)
	s.candidates += len(cands)
	return cands, len(stats.Degraded) > 0, nil
}

// process runs Stages 1–3 for an annotation already added to the shadow.
// Before Submit it replays the HopsToAny calls Submit makes for the
// auto-accepted candidates (read-only), so acg.hops times that part of
// verification.submit; it is a replica, not a child, and sums exclude it.
func (s *shadow) process(trace int64, a *annotation.Annotation, focal []relational.TupleID) ([]discovery.Candidate, verification.Outcome, error) {
	root := s.tr.start(trace, -1, "shadow.process")
	defer s.tr.end(root)
	cands, degraded, err := s.discover(trace, root, a.Body, focal)
	if err != nil {
		return nil, verification.Outcome{}, err
	}
	submit := s.manager.Submit
	if degraded {
		submit = s.manager.SubmitDegraded
	}
	start := time.Now()
	bounds := s.manager.Bounds()
	for _, c := range cands {
		if !degraded && bounds.Route(c.Confidence) == verification.AutoAccepted {
			s.graph.HopsToAny(c.Tuple.ID, focal)
		}
	}
	s.tr.record(trace, -1, "acg.hops", start, time.Since(start))
	id := s.tr.start(trace, root, "verification.submit")
	out, err := submit(a.ID, focal, cands)
	s.tr.end(id)
	if err != nil {
		return nil, out, err
	}
	s.accepted += len(out.Accepted)
	s.pending += len(out.Pending)
	s.rejected += len(out.Rejected)
	return cands, out, nil
}

// sameCandidates compares the shadow's candidates with the engine's.
func sameCandidates(engine *nebula.Discovery, shadow []discovery.Candidate) bool {
	var a, b strings.Builder
	renderDiscovery(&a, engine)
	renderDiscovery(&b, &nebula.Discovery{Candidates: shadow})
	return a.String() == b.String()
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	layer, metric string
	value         float64
	unit          string
	moves         string // end-to-end metric it should move
}

// writeLayerTable prints the per-layer table to stderr and to path.
func writeLayerTable(path, workload string, rows []layerRow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer table, workload %s\n", workload)
	fmt.Fprintf(&b, "%-13s %-36s %14s %-6s %s\n", "layer", "metric", "value", "unit", "should move (workload "+workload+")")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %-36s %14.4f %-6s %s\n", r.layer, r.metric, r.value, r.unit, r.moves)
	}
	fmt.Fprint(os.Stderr, b.String())
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
