package mp

import (
	"testing"
)

// BenchmarkPingPong measures point-to-point round trips per engine.
func BenchmarkPingPong(b *testing.B) {
	for _, mode := range []Mode{Virtual, Inproc, TCP} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := Config{Procs: 2, Mode: mode}
			_, err := cfg.Run(func(c Comm) error {
				other := 1 - c.Rank()
				for i := 0; i < b.N; i++ {
					if c.Rank() == 0 {
						if err := c.Send(other, 1, i); err != nil {
							return err
						}
						if _, err := c.Recv(other, 1); err != nil {
							return err
						}
					} else {
						if _, err := c.Recv(other, 1); err != nil {
							return err
						}
						if err := c.Send(other, 1, i); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAllreduce measures the collective the net-wise algorithm leans
// on, at the payload size of a typical coarse-grid sync.
func BenchmarkAllreduce(b *testing.B) {
	payload := make([]int32, 16384)
	for _, procs := range []int{2, 4, 8} {
		b.Run(map[int]string{2: "p2", 4: "p4", 8: "p8"}[procs], func(b *testing.B) {
			cfg := Config{Procs: procs, Mode: Virtual}
			_, err := cfg.Run(func(c Comm) error {
				for i := 0; i < b.N; i++ {
					if _, err := AllreduceInt32s(c, 1, payload, SumInt32s); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkPayloadSize measures the virtual engine's per-message
// pricing overhead.
func BenchmarkPayloadSize(b *testing.B) {
	payload := make([]int32, 16384)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		payloadSize(payload)
	}
}
