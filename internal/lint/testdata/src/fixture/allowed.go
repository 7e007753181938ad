package fixture

import (
	"context"
	"fmt"
	"sort"
	"time"

	_ "math/rand" //lint:allow nondeterminism fixture: suppressed forbidden import

	"parroute/internal/circuit"
	"parroute/internal/mp"
	"parroute/internal/rng"
)

// Every pattern below mirrors a violation in fixture.go but carries a
// //lint:allow directive; the golden test asserts none of them fire.

func StampAllowed() int64 {
	return time.Now().UnixNano() //lint:allow nondeterminism fixture: suppressed wall-clock read
}

func KeysAllowed(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k) //lint:allow nondeterminism fixture: suppressed map-order append
	}
	return out
}

func ShareAllowed(ctx context.Context, r *rng.RNG, out chan<- uint64) {
	go func() {
		select {
		case out <- r.Uint64(): //lint:allow rng-sharing fixture: suppressed shared stream
		case <-ctx.Done():
		}
	}()
}

func RebuildAllowed(c *circuit.Circuit) *circuit.Circuit {
	return c.Clone() //lint:allow forbidden-call fixture: suppressed whole-circuit clone
}

func SyncAllowed(c mp.Comm) {
	c.Barrier() //lint:allow unchecked-error fixture: suppressed dropped error
}

func DescribeAllowed(err error) error {
	return fmt.Errorf("routing failed: %v", err) //lint:allow error-wrap fixture: suppressed unwrapped error
}

func MustAllowed(n int) int {
	if n <= 0 {
		panic("fixture: invariant") //lint:allow panic-in-library fixture: suppressed invariant panic
	}
	return n
}

func MintAllowed(c mp.Comm, v any) error {
	return c.Send(1, 99, v) //lint:allow tag-discipline fixture: suppressed raw tag
}

func RankAllowed(ws []weighted) {
	sort.Slice(ws, func(i, j int) bool { return ws[i].W < ws[j].W }) //lint:allow sort-order fixture: suppressed single-key comparator
}

func RefreshAllowed(c mp.Comm, ctx context.Context) error { //lint:allow ctxrule fixture: suppressed trailing ctx
	<-ctx.Done()
	return c.Barrier()
}

type sessionAllowed struct {
	ctx  context.Context //lint:allow ctxrule fixture: suppressed stored ctx
	rank int
}

// RankAllowedSession keeps sessionAllowed used.
func (s *sessionAllowed) RankAllowedSession() int { return s.rank }
