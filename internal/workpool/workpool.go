// Package workpool runs bounded, deterministic fan-out over indexed work
// items — the intra-rank parallelism of the serial TWGR's per-net phases.
//
// The pool never owns output ordering: callers give every item (or chunk)
// a pre-computed slot in an output arena, workers claim chunks dynamically
// from an atomic cursor for load balance, and the merged result is
// byte-identical at every worker count because each slot has exactly one
// writer. Worker goroutines are counted, joined before return, and observe
// ctx between chunks, so a cancelled run settles promptly with no leaks.
package workpool

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Do runs fn(0, i) for every i in [0, n), fanning out on up to workers
// goroutines. See DoChunks for the contract; Do is the grain-1 form.
func Do(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	return DoChunks(ctx, workers, n, 1, func(w, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := fn(w, i); err != nil {
				return err
			}
		}
		return nil
	})
}

// DoChunks splits [0, n) into chunks of at most grain items and runs
// fn(worker, lo, hi) for each, fanning out on up to workers goroutines.
// Chunks are claimed dynamically (load balance), so fn must only write to
// state indexed by its items — never append to shared output. worker is in
// [0, workers) and identifies the executing goroutine, letting callers
// keep per-worker scratch without locking.
//
// workers <= 1 runs everything inline on the calling goroutine. A
// cancelled ctx stops the fan-out at the next chunk boundary; DoChunks
// joins every goroutine before returning an error wrapping ctx.Err(). The
// first error returned by fn likewise stops the fan-out and is returned
// after the join (one error, deterministically the lowest-chunk one,
// survives when several workers fail concurrently).
func DoChunks(ctx context.Context, workers, n, grain int, fn func(worker, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for lo := 0; lo < n; lo += grain {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("workpool: %w", err)
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			if err := fn(0, lo, hi); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64 // next unclaimed chunk
		failed   atomic.Bool  // any fn error yet? (cheap pre-check)
		mu       sync.Mutex
		firstErr error
		firstAt  int // chunk index of firstErr, for deterministic selection
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for ctx.Err() == nil && !failed.Load() {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				if err := fn(worker, lo, hi); err != nil {
					mu.Lock()
					if firstErr == nil || c < firstAt {
						firstErr, firstAt = err, c
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("workpool: %w", err)
	}
	return nil
}

// Collect returns, ascending, the indices i in [0, n) for which keep(i)
// holds — what `for i { if keep(i) { out = append(out, i) } }` builds — with
// keep called exactly once per index, on up to workers goroutines. Each
// chunk appends to its own stretch of one n-sized buffer and the stretches
// are then closed up front to back, so one chunk's stretch is the result as
// it stands and a one-worker caller pays what the loop did.
func Collect(ctx context.Context, workers, n int, keep func(i int) bool) ([]int, error) {
	grain := Grain(n, workers)
	buf, kept := make([]int, n), make([]int, (n+grain-1)/grain)
	err := DoChunks(ctx, workers, n, grain, func(_, lo, hi int) error {
		out := buf[lo:lo]
		for i := lo; i < hi; i++ {
			if keep(i) {
				out = append(out, i)
			}
		}
		kept[lo/grain] = len(out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	at := 0
	for c, k := range kept {
		at += copy(buf[at:], buf[c*grain:c*grain+k])
	}
	return buf[:at], nil
}

// Pad is the last field of a per-worker scratch struct that lives in a
// slice indexed by worker. Workers rewrite their scratch (slice headers,
// counters) once per item; without the pad the last fields of one worker's
// struct and the first of the next share a cache line wherever the slice
// happens to start, and two cores then trade that line on every item —
// measured on step 4 at two workers, that doubled the fan-out's wall.
type Pad [64]byte

// Grain picks a chunk size for n items on the given worker count: small
// enough that dynamic claiming balances skewed items (one chunk holding a
// giant clock net does not serialize the tail), large enough that the
// claim cursor is not contended per item.
func Grain(n, workers int) int {
	if workers < 1 {
		workers = 1
	}
	g := n / (workers * 8)
	if g < 1 {
		g = 1
	}
	if g > 4096 {
		g = 4096
	}
	return g
}
