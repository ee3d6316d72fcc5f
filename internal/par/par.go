// Package par runs independent, indexed jobs across the machine's cores.
// It is the one worker pool of the hot paths where the protocol's
// per-message identities make the work embarrassingly parallel: batch
// deposit preparation on the device, PKG extraction, and key opening and
// decapsulation on the receiving client.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach calls fn(ctx, i) for every i in [0, n) on up to GOMAXPROCS
// workers, the calling goroutine being one of them, and returns once
// every started call has returned. fn writes its result by index, so
// callers need no locking for per-item output.
//
// The first error fn returns cancels the ctx the other calls see, stops
// handing out indices, and is returned. A cancellation of the caller's
// ctx also stops handing out indices; ForEach then returns ctx.Err().
// With n ≤ 0 it returns nil without calling fn.
func ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := min(runtime.GOMAXPROCS(0), n)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	work := func() {
		defer wg.Done()
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := fn(ctx, i); err != nil {
				errOnce.Do(func() { firstErr = err; cancel() })
				return
			}
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
