package mp

import (
	"fmt"
	"testing"
)

// TestInprocCollectivesStress hammers the in-proc transport with N truly
// concurrent ranks exchanging every collective repeatedly. Its job is to
// give `go test -race ./internal/mp` real cross-goroutine traffic to
// inspect: mailbox delivery, the message barrier, and slice payload
// hand-off all run hot here. Every result is also verified, so it doubles
// as a correctness stress.
func TestInprocCollectivesStress(t *testing.T) {
	const (
		procs = 8
		iters = 25
		width = 16
	)
	cfg := Config{Procs: procs, Mode: Inproc}
	_, err := cfg.Run(func(c Comm) error {
		me := c.Rank()
		for it := 0; it < iters; it++ {
			// Allreduce: every rank contributes rank+iteration per column.
			own := make([]int32, width)
			for i := range own {
				own[i] = int32(me + it)
			}
			sum, err := AllreduceInt32s(c, 1, own, SumInt32s)
			if err != nil {
				return err
			}
			wantSum := int32(procs*it + procs*(procs-1)/2)
			for i, v := range sum {
				if v != wantSum {
					return fmt.Errorf("rank %d iter %d: allreduce[%d] = %d, want %d", me, it, i, v, wantSum)
				}
			}

			// Alltoall: rank r sends r*1000+dst to dst. Fresh payloads per
			// send: sent values belong to the receiver afterwards.
			vs := make([]int, procs)
			for dst := range vs {
				vs[dst] = me*1000 + dst
			}
			got, err := Alltoall(c, 2, vs)
			if err != nil {
				return err
			}
			for src, v := range got {
				if v != src*1000+me {
					return fmt.Errorf("rank %d iter %d: alltoall from %d = %v, want %d", me, it, src, v, src*1000+me)
				}
			}

			// Allgather: the rotating root's word reaches every rank in one
			// hop (the job Bcast had), and a prefix sum over the gathered
			// ranks (the job Scan had) checks every slot.
			root := it % procs
			words, err := Allgather(c, 3, fmt.Sprintf("it%d-rank%d", it, me))
			if err != nil {
				return err
			}
			if want := fmt.Sprintf("it%d-rank%d", it, root); words[root] != want {
				return fmt.Errorf("rank %d iter %d: allgather[%d] = %v, want %q", me, it, root, words[root], want)
			}
			ranks, err := Allgather(c, 4, me)
			if err != nil {
				return err
			}
			prefix := 0
			for _, v := range ranks[:me+1] {
				prefix += v
			}
			if want := me * (me + 1) / 2; prefix != want {
				return fmt.Errorf("rank %d iter %d: prefix sum = %d, want %d", me, it, prefix, want)
			}

			// Gather at a rotating root, then a barrier before the next
			// round reuses the tags.
			all, err := Gather(c, root, 5, me)
			if err != nil {
				return err
			}
			if me == root {
				for r, v := range all {
					if v != r {
						return fmt.Errorf("rank %d iter %d: gather[%d] = %v", me, it, r, v)
					}
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
