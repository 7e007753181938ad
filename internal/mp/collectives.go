package mp

import (
	"fmt"
	"reflect"
)

// Collective operations, built generically on Comm point-to-point
// primitives so every engine (and its cost accounting) gets them for free.
// All ranks of a communicator must call a collective together, with the
// same root and tag; tags keep concurrent protocol phases apart.

// Gather collects one value per rank at root. On root it returns a slice
// indexed by rank (root's own contribution included); elsewhere nil.
func Gather[T any](c Comm, root, tag int, v T) ([]T, error) {
	if c.Rank() != root {
		if err := c.Send(root, tag, v); err != nil {
			return nil, fmt.Errorf("mp: gather to root %d: %w", root, err)
		}
		return nil, nil
	}
	out := make([]T, c.Size())
	out[root] = v
	if err := recvPeers(c, tag, out); err != nil {
		return nil, fmt.Errorf("mp: gather %w", err)
	}
	return out, nil
}

// Allgather collects one value per rank at every rank, indexed by rank.
//
// One hop: every rank sends v to every peer, so no rank waits for a root
// (gather-to-0 then broadcast took two hops, and twice the messages at
// P=2). Peers receive v itself on the in-memory engines: do not write to
// it afterwards.
func Allgather[T any](c Comm, tag int, v T) ([]T, error) {
	vs := make([]T, c.Size())
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
	for r, other := range vs {
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
func Alltoall[T any](c Comm, tag int, vs []T) ([]T, error) {
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
	out := make([]T, c.Size())
	out[me] = vs[me]
	if err := recvPeers(c, tag, out); err != nil {
		return nil, fmt.Errorf("mp: alltoall %w", err)
	}
	return out, nil
}

// recvPeers sets out[r] to what each peer r sends on tag, which must be a
// T: a value of any other type is an error naming the tag and the rank.
func recvPeers[T any](c Comm, tag int, out []T) error {
	for r := range out {
		if r == c.Rank() {
			continue
		}
		raw, err := c.Recv(r, tag)
		if err != nil {
			return fmt.Errorf("from rank %d: %w", r, err)
		}
		v, ok := raw.(T)
		if !ok {
			return fmt.Errorf("tag %d from rank %d arrived as %T, want %v", tag, r, raw, reflect.TypeFor[T]())
		}
		out[r] = v
	}
	return nil
}

// AllreduceInt combines one int per rank with op on every rank, in rank
// order; see AllreduceInt32s.
func AllreduceInt(c Comm, tag int, v int, op func(a, b int) int) (int, error) {
	vs, err := Allgather(c, tag, v)
	if err != nil {
		return 0, err
	}
	acc := vs[0]
	for _, x := range vs[1:] {
		acc = op(acc, x)
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
