package mp

import "fmt"

// Collective operations, built generically on Comm point-to-point
// primitives so every engine (and its cost accounting) gets them for free.
// All ranks of a communicator must call a collective together, with the
// same root and tag; tags keep concurrent protocol phases apart.

// Gather collects one value per rank at root. On root it returns a slice
// indexed by rank (root's own contribution included); elsewhere nil.
func Gather(c Comm, root, tag int, v any) ([]any, error) {
	if c.Rank() != root {
		if err := c.Send(root, tag, v); err != nil {
			return nil, fmt.Errorf("mp: gather to root %d: %w", root, err)
		}
		return nil, nil
	}
	out := make([]any, c.Size())
	out[root] = v
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		got, err := c.Recv(r, tag)
		if err != nil {
			return nil, fmt.Errorf("mp: gather from rank %d: %w", r, err)
		}
		out[r] = got
	}
	return out, nil
}

// Allgather collects one value per rank at every rank, indexed by rank.
//
// One hop: every rank sends v to every peer, so no rank waits for a root
// (gather-to-0 then broadcast took two hops, and twice the messages at
// P=2). Peers receive v itself on the in-memory engines: do not write to
// it afterwards.
func Allgather(c Comm, tag int, v any) ([]any, error) {
	vs := make([]any, c.Size())
	for r := range vs {
		vs[r] = v
	}
	out, err := Alltoall(c, tag, vs)
	if err != nil {
		return nil, fmt.Errorf("mp: allgather: %w", err)
	}
	return out, nil
}

// AllreduceInt32s element-wise combines equal-length int32 slices from all
// ranks with op and returns the combined slice on every rank. The input
// slice is not modified, and the result is the caller's own.
//
// Every rank folds the Allgather of the vectors itself, in rank order, so
// all ranks compute the same value.
func AllreduceInt32s(c Comm, tag int, v []int32, op func(a, b int32) int32) ([]int32, error) {
	// Peers read what they are sent while this rank has already returned
	// and may be writing v again, so they get a copy.
	vs, err := Allgather(c, tag, append([]int32(nil), v...))
	if err != nil {
		return nil, err
	}
	var acc []int32
	for r, raw := range vs {
		other, ok := raw.([]int32)
		if !ok {
			return nil, fmt.Errorf("mp: allreduce received %T from rank %d, want []int32", raw, r)
		}
		if len(other) != len(v) {
			return nil, fmt.Errorf("mp: allreduce length mismatch: rank %d sent %d, want %d",
				r, len(other), len(v))
		}
		if r == 0 {
			acc = append(make([]int32, 0, len(v)), other...)
			continue
		}
		for i := range acc {
			acc[i] = op(acc[i], other[i])
		}
	}
	return acc, nil
}

// SumInt32s is the addition operator for AllreduceInt32s.
func SumInt32s(a, b int32) int32 { return a + b }

// Alltoall sends vs[r] to each rank r and returns the values addressed to
// the caller, indexed by source rank. len(vs) must equal Size.
func Alltoall(c Comm, tag int, vs []any) ([]any, error) {
	if len(vs) != c.Size() {
		return nil, fmt.Errorf("mp: alltoall with %d values for %d ranks", len(vs), c.Size())
	}
	me := c.Rank()
	for r := 0; r < c.Size(); r++ {
		if r == me {
			continue
		}
		if err := c.Send(r, tag, vs[r]); err != nil {
			return nil, fmt.Errorf("mp: alltoall to rank %d: %w", r, err)
		}
	}
	out := make([]any, c.Size())
	out[me] = vs[me]
	for r := 0; r < c.Size(); r++ {
		if r == me {
			continue
		}
		got, err := c.Recv(r, tag)
		if err != nil {
			return nil, fmt.Errorf("mp: alltoall from rank %d: %w", r, err)
		}
		out[r] = got
	}
	return out, nil
}

// AllreduceInt combines one int per rank with op on every rank, in rank
// order; see AllreduceInt32s.
func AllreduceInt(c Comm, tag int, v int, op func(a, b int) int) (int, error) {
	vs, err := Allgather(c, tag, v)
	if err != nil {
		return 0, err
	}
	acc := 0
	for r, raw := range vs {
		x, ok := raw.(int)
		if !ok {
			return 0, fmt.Errorf("mp: allreduce received %T from rank %d, want int", raw, r)
		}
		if r == 0 {
			acc = x
		} else {
			acc = op(acc, x)
		}
	}
	return acc, nil
}

// MaxInt and SumInt are common AllreduceInt operators.
func MaxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SumInt adds two ints; see AllreduceInt.
func SumInt(a, b int) int { return a + b }
