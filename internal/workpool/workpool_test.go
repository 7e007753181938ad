package workpool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"parroute/internal/rng"
)

// TestDoChunksCoversEveryItemOnce pins the core contract: every item is
// visited exactly once, for a sweep of worker counts and grains.
func TestDoChunksCoversEveryItemOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		for _, grain := range []int{0, 1, 3, 7, 100} {
			for _, n := range []int{0, 1, 5, 97, 1000} {
				var hits []atomic.Int32
				hits = make([]atomic.Int32, n)
				err := DoChunks(context.Background(), workers, n, grain, func(w, lo, hi int) error {
					if lo < 0 || hi > n || lo >= hi {
						return fmt.Errorf("bad chunk [%d,%d) of %d", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("workers=%d grain=%d n=%d: %v", workers, grain, n, err)
				}
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Fatalf("workers=%d grain=%d n=%d: item %d visited %d times", workers, grain, n, i, got)
					}
				}
			}
		}
	}
}

// TestDoWorkerIndexInRange pins that the worker index handed to fn always
// addresses a valid per-worker scratch slot.
func TestDoWorkerIndexInRange(t *testing.T) {
	const workers, n = 4, 500
	var bad atomic.Int32
	err := Do(context.Background(), workers, n, func(w, i int) error {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d calls saw a worker index outside [0,%d)", bad.Load(), workers)
	}
}

// TestDoChunksSlotDeterminism pins the deterministic-reduction contract:
// with slot-indexed output, the merged result is byte-identical at every
// worker count.
func TestDoChunksSlotDeterminism(t *testing.T) {
	const n = 2048
	ref := make([]int64, n)
	for i := range ref {
		ref[i] = int64(i)*2654435761 ^ int64(i)<<7
	}
	for _, workers := range []int{1, 2, 5, 16} {
		out := make([]int64, n)
		err := DoChunks(context.Background(), workers, n, Grain(n, workers), func(w, lo, hi int) error {
			for i := lo; i < hi; i++ {
				out[i] = int64(i)*2654435761 ^ int64(i)<<7
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, out[i], ref[i])
			}
		}
	}
}

// TestDoChunksCancelMidStage cancels the context while chunks are in
// flight: DoChunks must stop claiming work, join every worker, and return
// an error wrapping context.Canceled — the same unwind contract the
// routing pipeline's cancellation tier checks end to end.
func TestDoChunksCancelMidStage(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	err := DoChunks(ctx, 4, 10000, 1, func(w, lo, hi int) error {
		if started.Add(1) == 8 {
			cancel()
		}
		return nil
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 10000 {
		t.Fatalf("cancellation did not stop the fan-out (%d chunks ran)", n)
	}
	waitForGoroutines(t, before)
}

// TestDoChunksCancelBeforeStart pins the already-cancelled fast path.
func TestDoChunksCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := DoChunks(ctx, 1, 10, 1, func(w, lo, hi int) error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("fn ran under a pre-cancelled context")
	}
}

// TestDoChunksErrorCancelsPeers pins error propagation: the first failing
// chunk's error is returned, later chunks stop being claimed, and every
// goroutine settles.
func TestDoChunksErrorCancelsPeers(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	var ran atomic.Int32
	err := DoChunks(context.Background(), 4, 100000, 1, func(w, lo, hi int) error {
		if ran.Add(1) == 10 {
			return fmt.Errorf("chunk %d: %w", lo, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := ran.Load(); n >= 100000 {
		t.Fatalf("error did not stop the fan-out (%d chunks ran)", n)
	}
	waitForGoroutines(t, before)
}

// TestCollectMatchesLoop holds the parallel filter to the loop it replaces:
// over random predicates of every density, the indices come back ascending
// and complete, and the predicate ran exactly once per index, at worker
// counts below, at and above n. A cancelled context yields no list.
func TestCollectMatchesLoop(t *testing.T) {
	r := rng.New(22)
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, workers - 1, 100_000} {
			for _, density := range []int{0, 1, 50, 99, 100} {
				keep := make([]bool, n)
				var want []int
				for i := range keep {
					if keep[i] = r.Intn(100) < density; keep[i] {
						want = append(want, i)
					}
				}
				calls := make([]atomic.Int32, n)
				got, err := Collect(context.Background(), workers, n, func(i int) bool {
					calls[i].Add(1)
					return keep[i]
				})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("workers=%d n=%d density=%d: %d indices, the loop keeps %d", workers, n, density, len(got), len(want))
				}
				for i := range calls {
					if c := calls[i].Load(); c != 1 {
						t.Fatalf("workers=%d n=%d: predicate called %d times on index %d", workers, n, c, i)
					}
				}
			}
		}
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int32
	got, err := Collect(ctx, 4, 1_000_000, func(int) bool {
		if seen.Add(1) == 100 {
			cancel()
		}
		return true
	})
	cancel()
	if !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("cancelled Collect returned %d indices and err = %v", len(got), err)
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines waits for the goroutine count to settle back to the
// pre-test level (other tests' parked goroutines allowed for).
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: %d now, %d before", runtime.NumGoroutine(), before)
}
