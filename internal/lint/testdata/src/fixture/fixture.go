// Package fixture contains exactly one intentional violation per
// internal/lint analyzer. The golden test in internal/lint asserts each
// rule fires exactly once here; allowed.go holds the same patterns
// suppressed with //lint:allow.
package fixture

import (
	"context"
	"fmt"
	"sort"
	"time"

	"parroute/internal/circuit"
	"parroute/internal/mp"
	"parroute/internal/rng"
	"parroute/internal/steiner"
)

// Stamp violates nondeterminism: a wall-clock read outside the timing
// allowlist.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Share violates rng-sharing: the goroutine captures the parent's stream
// instead of receiving a Split() child.
func Share(ctx context.Context, r *rng.RNG, out chan<- uint64) {
	go func() {
		select {
		case out <- r.Uint64():
		case <-ctx.Done():
		}
	}()
}

// Rebuild violates forbidden-call once per row of the analyzer's table: the
// per-call wrapper, a whole-circuit Clone and a one-at-a-time
// InsertFeedthrough (fixture files count as inside every row's scope).
func Rebuild(c *circuit.Circuit) int {
	steiner.BuildNet(c, 0)
	return c.Clone().InsertFeedthrough(0, 0, circuit.NoNet)
}

// Sync violates unchecked-error: a dropped transport error turns a failed
// barrier into silent corruption.
func Sync(c mp.Comm) {
	c.Barrier()
}

// Describe violates error-wrap: %v flattens the cause.
func Describe(err error) error {
	return fmt.Errorf("routing failed: %v", err)
}

// MustPositive violates panic-in-library.
func MustPositive(n int) int {
	if n <= 0 {
		panic("fixture: n must be positive")
	}
	return n
}

// weighted is sorted by Rank below; W breaks no ties, so equal-W elements
// land in input-dependent order.
type weighted struct {
	W  int
	ID int
}

// Rank violates sort-order: a single-key sort.Slice comparator with no
// tie-break on the unique ID.
func Rank(ws []weighted) {
	sort.Slice(ws, func(i, j int) bool { return ws[i].W < ws[j].W })
}

// RankValues keeps the sort-order check quiet: the whole element is the
// key, so equal elements are interchangeable.
func RankValues(vs []int) {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
}

// tagFixture is the one well-formed tag of this package: Feed sends it
// and Drain receives it, so the orphan-tag check stays quiet.
const tagFixture = 7

// Mint violates tag-discipline: the raw literal mints an unregistered
// protocol stream instead of naming a tag constant.
func Mint(c mp.Comm, v any) error {
	return c.Send(1, 99, v)
}

// Drain receives tagFixture from the given rank.
func Drain(c mp.Comm, from int) (any, error) {
	return c.Recv(from, tagFixture)
}

// Feed is Drain's sending half; it keeps tagFixture paired module-wide.
func Feed(c mp.Comm, to int, v any) error {
	return c.Send(to, tagFixture, v)
}

// tagStolen violates the reserved-range half of tag-discipline: negative
// tags belong to the mp engines. Steal and Restock pair it module-wide so
// only the reserved-range diagnostic fires, not the orphan check.
const tagStolen = -2

// Restock sends tagStolen; Steal receives it.
func Restock(c mp.Comm, to int, v any) error {
	return c.Send(to, tagStolen, v)
}

// Steal receives tagStolen from the given rank.
func Steal(c mp.Comm, from int) (any, error) {
	return c.Recv(from, tagStolen)
}

// Refresh violates ctxrule: the context is not the first parameter, so
// call sites stop reading uniformly and a grown signature can lose it.
func Refresh(c mp.Comm, ctx context.Context) error {
	<-ctx.Done()
	return c.Barrier()
}

// session violates ctxrule: storing the context decouples cancellation
// from the call it was meant to scope.
type session struct {
	ctx  context.Context
	rank int
}

// Rank returns the stored rank (keeps session used).
func (s *session) Rank() int { return s.rank }
