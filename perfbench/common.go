package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"nebula"
	"nebula/internal/wal"
)

// setupReps is how many times each workload builds its set-up; setup_s is
// the median, and the last build is the one measured.
const setupReps = 3

// numCPU is the worker count the engine resolves Parallelism 0 to.
var numCPU = runtime.NumCPU()

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timedSetup runs build setupReps times and returns the last result with
// the median build time in seconds. Each discarded build is released
// before the next starts, so set-ups do not compete for memory.
func timedSetup[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			release(last)
			runtime.GC()
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// liveHeapMB forces a collection and reports the live Go heap in MiB. The
// caller keeps whatever it measures alive past the call.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// scratchDir makes a fresh directory for one run's on-disk state under the
// output directory; the caller removes it.
func scratchDir(cfg config) (string, error) {
	dir := filepath.Join(cfg.out, fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// attachWAL opens a group-commit log in dir and binds it to e.
func attachWAL(e *nebula.Engine, dir string) error {
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncGroup})
	if err != nil {
		return fmt.Errorf("open wal: %w", err)
	}
	e.AttachWAL(l)
	return nil
}

// closeEngine detaches the WAL and the disk store, if any.
func closeEngine(e *nebula.Engine) error {
	if e == nil {
		return nil
	}
	if err := e.CloseWAL(); err != nil {
		return err
	}
	return e.CloseStore()
}

// renderDiscovery is the identity rendering of one discovery: every
// candidate with its confidence and evidence, in result order.
func renderDiscovery(b *strings.Builder, d *nebula.Discovery) {
	for _, c := range d.Candidates {
		fmt.Fprintf(b, " %s/%s=%.9f[%s]", c.Tuple.ID.Table, c.Tuple.ID.Key, c.Confidence, strings.Join(c.Evidence, ","))
	}
}

// renderOutcome renders Stage-3 routing with the VIDs it consumed.
func renderOutcome(b *strings.Builder, o nebula.VerificationOutcome) {
	for _, group := range []struct {
		tag   string
		tasks []*nebula.VerificationTask
	}{{"acc", o.Accepted}, {"pend", o.Pending}, {"rej", o.Rejected}} {
		fmt.Fprintf(b, " %s:", group.tag)
		for _, t := range group.tasks {
			fmt.Fprintf(b, " v%d:%s/%s", t.VID, t.Tuple.Table, t.Tuple.Key)
		}
	}
}

// fingerprint renders the engine state that must survive a restart and must
// match between an engine and its control: every annotation's attachments,
// every pending task with its VID, the bounds, and the queued ingest jobs.
// Call it only while no other goroutine uses the engine.
func fingerprint(e *nebula.Engine) string {
	var b strings.Builder
	for _, id := range e.Store().IDs() {
		fmt.Fprintf(&b, "%s:", id)
		for _, att := range e.Store().Attachments(id, -1) {
			fmt.Fprintf(&b, " %s/%s.%s:%d=%.9f", att.Tuple.Table, att.Tuple.Key, att.Column, att.Type, att.Confidence)
		}
		b.WriteByte('\n')
	}
	for _, t := range e.PendingTasks() {
		fmt.Fprintf(&b, "task v%d %s %s/%s %.9f [%s]\n", t.VID, t.Annotation, t.Tuple.Table, t.Tuple.Key, t.Confidence, strings.Join(t.Evidence, ","))
	}
	bounds := e.Bounds()
	fmt.Fprintf(&b, "bounds %.9f %.9f\n", bounds.Lower, bounds.Upper)
	for _, j := range e.IngestJobs() {
		fmt.Fprintf(&b, "job %s kind=%d prio=%d seq=%d\n", j.Annotation, j.Kind, j.Priority, j.Seq)
	}
	return b.String()
}

// firstDiff locates the first differing line of two renderings, for the
// mismatch report.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: %.160q vs %.160q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(la), len(lb))
}

// datasetSeed generates every workload's database. --seed drives the
// operations run against it (which annotations, in which order, which
// reads, rows and verdicts), so runs with different seeds measure the same
// database under different request streams.
const datasetSeed = 1
