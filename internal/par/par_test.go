package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs the test body under GOMAXPROCS = n, restoring the old
// value afterwards, so the pool's width is known.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestForEachResultsLandByIndex(t *testing.T) {
	withProcs(t, 4)
	const n = 200
	out := make([]int, n)
	var calls atomic.Int64
	err := ForEach(context.Background(), n, func(_ context.Context, i int) error {
		calls.Add(1)
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != n {
		t.Fatalf("fn called %d times, want %d", calls.Load(), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestForEachRunsUpToGOMAXPROCSAtOnce(t *testing.T) {
	withProcs(t, 2)
	// Two calls that each wait for the other can only finish if the
	// pool really runs two at a time.
	var arrived atomic.Int64
	var running, peak atomic.Int64
	err := ForEach(context.Background(), 8, func(_ context.Context, i int) error {
		now := running.Add(1)
		defer running.Add(-1)
		for {
			p := peak.Load()
			if now <= p || peak.CompareAndSwap(p, now) {
				break
			}
		}
		if i < 2 {
			arrived.Add(1)
			deadline := time.Now().Add(5 * time.Second)
			for arrived.Load() < 2 {
				if time.Now().After(deadline) {
					return errors.New("second worker never ran alongside the first")
				}
				runtime.Gosched()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 2 {
		t.Fatalf("peak concurrency %d, want 2 (GOMAXPROCS)", p)
	}
}

func TestForEachFirstErrorWins(t *testing.T) {
	withProcs(t, 4)
	errFirst := errors.New("first")
	errLater := errors.New("later")
	err := ForEach(context.Background(), 64, func(ctx context.Context, i int) error {
		if i == 0 {
			return errFirst
		}
		// Every other call waits for the cancellation the first error
		// causes, then fails too; its error must not replace the first.
		<-ctx.Done()
		return errLater
	})
	if !errors.Is(err, errFirst) {
		t.Fatalf("err = %v, want %v", err, errFirst)
	}
}

func TestForEachErrorStopsFeeding(t *testing.T) {
	withProcs(t, 2)
	var calls atomic.Int64
	err := ForEach(context.Background(), 10000, func(ctx context.Context, i int) error {
		calls.Add(1)
		if i == 5 {
			return errors.New("boom")
		}
		if i > 5 {
			// Hold later calls until the error has cancelled the pool,
			// so no worker can race ahead of the cancellation.
			<-ctx.Done()
		}
		return nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	// Indices 0-5, plus at most one held call on the other worker.
	if c := calls.Load(); c > 6+1 {
		t.Fatalf("%d calls after an error at index 5", c)
	}
}

func TestForEachCancellationStopsFeeding(t *testing.T) {
	withProcs(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	err := ForEach(ctx, 10000, func(ctx context.Context, i int) error {
		calls.Add(1)
		if i == 5 {
			cancel()
		}
		if i > 5 {
			<-ctx.Done()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Indices 0-5, plus at most one held call per worker.
	if c := calls.Load(); c > 6+2 {
		t.Fatalf("%d calls after cancellation at index 5", c)
	}

	// An already canceled context starts nothing.
	calls.Store(0)
	err = ForEach(ctx, 10, func(context.Context, int) error { calls.Add(1); return nil })
	if !errors.Is(err, context.Canceled) || calls.Load() != 0 {
		t.Fatalf("pre-canceled ctx: err = %v, %d calls", err, calls.Load())
	}
}

func TestForEachZeroItems(t *testing.T) {
	for _, n := range []int{0, -1} {
		err := ForEach(context.Background(), n, func(context.Context, int) error {
			t.Fatal("fn called for an empty range")
			return nil
		})
		if err != nil {
			t.Fatalf("n = %d: err = %v", n, err)
		}
	}
}

func TestForEachLeavesNoGoroutines(t *testing.T) {
	withProcs(t, 4)
	base := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		fail := round%2 == 1
		_ = ForEach(context.Background(), 32, func(_ context.Context, i int) error {
			if fail && i == 7 {
				return errors.New("boom")
			}
			return nil
		})
	}
	// ForEach waits for its workers, but a worker that has signalled may
	// still be on its way out; give the scheduler a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
