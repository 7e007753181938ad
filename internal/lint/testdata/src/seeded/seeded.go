// Package seeded is the regression fixture for collective-congruence: it
// reproduces the exact bug class the rule exists for — a barrier (or a
// collective helper) moved inside a rank-conditional branch, which
// deadlocks every other rank. TestSeededRankGatedBarrierCaught asserts
// both patterns are caught statically; the internal/mp deadlock tests
// show the same patterns hang dynamically on the virtual engine.
package seeded

import "parroute/internal/mp"

const tagSeed = 30

// Worker reproduces the seeded regression: the result-phase barrier
// moved inside the rank-0 branch, so ranks 1..n-1 never enter it.
func Worker(c mp.Comm) error {
	if c.Rank() == 0 {
		if err := c.Barrier(); err != nil {
			return err
		}
	}
	return nil
}

// gatherHalf mirrors a one-collective helper like internal/parallel's
// exchangeFakePins: its one-level collective summary is [Gather], which the
// congruence rule expands at each call site.
func gatherHalf(c mp.Comm, v any) error {
	_, err := mp.Gather(c, 0, tagSeed, v)
	return err
}

// SkewedGather hides the rank-conditional collective behind a helper
// call: only non-zero ranks enter the gather, so rank 0's Gather peers
// never show up.
func SkewedGather(c mp.Comm, v any) error {
	if c.Rank() != 0 {
		return gatherHalf(c, v)
	}
	return nil
}
