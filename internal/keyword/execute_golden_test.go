package keyword

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden files under testdata/golden/ instead of
// comparing against them:
//
//	go test ./internal/keyword -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestGoldenExecuteBatch pins ExecuteBatchContext's observable output —
// a digest of the per-query results, every non-scheduling ExecStats field,
// the number of result entries, and the error — across both execution
// strategies, worker counts, scan budgets, and context states. Each case runs on a fresh
// fixture with the scan cache enabled, twice: cold, then warm, so cache
// accounting is pinned as well. The golden file was recorded against the
// executor this test guards, so a rewrite of the executor must reproduce
// it byte for byte.
func TestGoldenExecuteBatch(t *testing.T) {
	qs := detQueries(48)
	type ctxCase struct {
		name string
		make func() (context.Context, context.CancelFunc)
	}
	ctxs := []ctxCase{
		{"background", func() (context.Context, context.CancelFunc) { return context.Background(), func() {} }},
		{"live", func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) }},
		{"cancelled", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel
		}},
	}
	var b strings.Builder
	for _, shared := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4} {
			for _, budget := range []int{0, 3000, 7000} {
				for _, cc := range ctxs {
					e := detFixture(t, 3000)
					e.db.EnableScanCache(1 << 24)
					lim := Limits{MaxScannedRows: budget, MaxWorkers: workers}
					for _, pass := range []string{"cold", "warm"} {
						ctx, cancel := cc.make()
						res, stats, err := e.ExecuteBatchContext(ctx, qs, shared, lim)
						cancel()
						fmt.Fprintf(&b, "== shared=%v workers=%d budget=%d ctx=%s %s\n%s",
							shared, workers, budget, cc.name, pass, digestBatch(qs, res, stats, err))
					}
				}
			}
		}
	}
	checkGolden(t, "execute_batch", b.String())
}

// digestBatch renders a batch outcome compactly: the number of result
// entries, the total result count and an FNV-1a digest of renderBatch's
// per-query result lines, then renderBatch's stats-and-error line verbatim.
func digestBatch(qs []Query, res map[string][]Result, stats ExecStats, err error) string {
	full := renderBatch(qs, res, stats, err)
	results := onlyResults(full)
	n := 0
	for _, rs := range res {
		n += len(rs)
	}
	h := fnv.New64a()
	h.Write([]byte(results))
	return fmt.Sprintf("entries=%d results=%d digest=%016x\n%s", len(res), n, h.Sum64(), full[len(results):])
}

// checkGolden compares got against testdata/golden/<name>.golden, or
// rewrites the file when -update is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to create it): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (run with -update after intentional changes)\n--- want\n%s--- got\n%s",
			path, want, got)
	}
}
