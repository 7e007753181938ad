package bench

import (
	"fmt"
	"io"

	"parroute/internal/mp"
	"parroute/internal/partition"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MinMax returns the smallest and largest value of xs; both are 0 for an
// empty slice.
func MinMax(xs []float64) (min, max float64) {
	for i, x := range xs {
		if i == 0 || x < min {
			min = x
		}
		if i == 0 || x > max {
			max = x
		}
	}
	return min, max
}

// ScaledTracksStats prints a scaled-track table (2, 3 or 4) where every
// cell is the mean over several seeds, with the min-max spread — the
// multi-seed robustness check for the single-seed tables. Each seed draws
// both a fresh synthetic circuit and fresh routing randomness.
func ScaledTracksStats(w io.Writer, cfg Config, table int, seeds []uint64) error {
	algo, err := algoForTable(table)
	if err != nil {
		return err
	}
	cfg.Normalize()
	if len(seeds) == 0 {
		return fmt.Errorf("bench: no seeds given")
	}

	header := []string{"circuit"}
	var procs []int
	for _, p := range cfg.Procs {
		if p > 1 {
			procs = append(procs, p)
			header = append(header, fmt.Sprintf("%d proc", p))
		}
	}

	// One suite per seed, so circuits and baselines are cached per seed.
	suites := make([]*Suite, len(seeds))
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		suites[i] = NewSuite(c)
	}

	var rows [][]string
	for _, name := range cfg.Circuits {
		row := []string{name}
		for _, p := range procs {
			scaled := make([]float64, 0, len(suites))
			for _, s := range suites {
				base, err := s.Baseline(name)
				if err != nil {
					return err
				}
				r, err := s.Run(name, algo, p, mp.SMP(), 0, partition.PinWeight)
				if err != nil {
					return err
				}
				scaled = append(scaled, r.ScaledTracks(base))
			}
			min, max := MinMax(scaled)
			row = append(row, fmt.Sprintf("%.3f [%.3f-%.3f]", Mean(scaled), min, max))
		}
		rows = append(rows, row)
	}
	writeTable(w, fmt.Sprintf("Table %d over %d seeds: scaled tracks of the %v algorithm, "+
		"mean [min-max]", table, len(seeds), algo), header, rows)
	return nil
}
