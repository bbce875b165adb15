package pool

import (
	"context"
	"runtime"
	"testing"
)

// TestRunPanicPropagates pins the pool contract: a worker panic is
// re-raised on the calling goroutine (so the engine's public boundary can
// convert it to ErrInternal) instead of crashing the process. GOMAXPROCS
// is raised so the tasks really run on worker goroutines.
func TestRunPanicPropagates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer func() {
		if recover() == nil {
			t.Error("worker panic was swallowed")
		}
	}()
	Run(context.Background(), 8, 4, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}
