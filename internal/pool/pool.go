// Package pool runs independent tasks on a bounded set of goroutines. It is
// the one worker pool behind the substrate's segment-parallel scans, the
// keyword executor's unshared fan-out, and the engine's batch and ingest
// fan-outs.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run executes n tasks on up to workers goroutines. The pool is never
// wider than n or GOMAXPROCS: goroutines beyond the scheduler's
// parallelism only add churn, so workers <= 1, or GOMAXPROCS == 1, runs
// the tasks inline on the calling goroutine — no goroutines, no
// synchronization. Tasks are handed out through an atomic counter, so
// faster workers steal the remaining load; every task must write only to
// its own result slots. Once ctx is cancelled no new task starts (tasks
// already running finish) and Run returns after the drain.
//
// A panicking task does not kill the process from a worker goroutine: the
// first panic value is captured and re-raised on the calling goroutine
// after the drain, so callers see the same panic-on-my-stack behavior as
// the inline path (and the engine's public boundary can convert it to
// ErrInternal). Callers that must keep the other tasks' results recover
// inside the task instead.
func Run(ctx context.Context, n, workers int, task func(int)) {
	if g := runtime.GOMAXPROCS(0); workers > g {
		workers = g
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			task(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() { panicked = r })
						}
					}()
					task(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(fmt.Sprintf("pool: worker panic: %v", panicked))
	}
}
