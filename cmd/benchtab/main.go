// benchtab regenerates the paper's tables and figures on the synthetic
// MCNC-like circuits and the simulated SMP/DMP machines.
//
// Usage:
//
//	benchtab -all                 # everything (Tables 1-5, Figures 4-6, ablations)
//	benchtab -table 2             # one table (1..5)
//	benchtab -figure 5            # one figure (4..6)
//	benchtab -ablation partition  # or: sync
//	benchtab -quick -all          # smaller circuit set for a fast pass
//
// The perf ledger is not here: `go run ./benchmark` (BENCHMARK.json) owns
// every committed number.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"parroute/internal/bench"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every table, figure and ablation")
		table    = flag.Int("table", 0, "regenerate one table (1-5)")
		figure   = flag.Int("figure", 0, "regenerate one figure (4-6)")
		ablation = flag.String("ablation", "", "run an ablation: partition | sync | platform")
		quick    = flag.Bool("quick", false, "use only the two smallest circuits")
		seed     = flag.Uint64("seed", 7, "seed for circuit synthesis and routing")
		reps     = flag.Int("reps", 1, "timing repetitions (fastest kept)")
		seeds    = flag.Int("seeds", 0, "for -table 2/3/4: report mean [min-max] over this many seeds")
		circuits = flag.String("circuits", "", "comma-separated circuit subset")
		procs    = flag.String("procs", "1,2,4,8", "comma-separated worker counts")
	)
	flag.Parse()

	cfg := bench.Config{Seed: *seed, Reps: *reps}
	if *quick {
		cfg.Circuits = []string{"primary2", "biomed"}
	}
	if *circuits != "" {
		cfg.Circuits = strings.Split(*circuits, ",")
	}
	for _, tok := range strings.Split(*procs, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			fatalf("bad -procs value %q: %v", tok, err)
		}
		cfg.Procs = append(cfg.Procs, p)
	}
	s := bench.NewSuite(cfg)

	ran := false
	check := func(err error) {
		if err != nil {
			fatalf("%v", err)
		}
		ran = true
	}
	if *all || *table == 1 {
		check(s.Table1(os.Stdout))
	}
	for _, tb := range []int{2, 3, 4} {
		if *all || *table == tb {
			if *seeds > 1 {
				var ss []uint64
				for i := 0; i < *seeds; i++ {
					ss = append(ss, *seed+uint64(i))
				}
				check(bench.ScaledTracksStats(os.Stdout, cfg, tb, ss))
			} else {
				check(s.ScaledTracks(os.Stdout, tb))
			}
		}
	}
	for _, fg := range []int{4, 5, 6} {
		if *all || *figure == fg {
			check(s.Speedups(os.Stdout, fg))
		}
	}
	if *all || *table == 5 {
		check(s.Table5(os.Stdout, 8, 16))
	}
	if *all || *ablation == "partition" {
		check(s.AblationPartition(os.Stdout, ablationCircuit(cfg), 8))
	}
	if *all || *ablation == "sync" {
		check(s.AblationSync(os.Stdout, ablationCircuit(cfg), 8, []int{-1, 1, 4, 16}))
	}
	if *all || *ablation == "platform" {
		check(s.AblationPlatform(os.Stdout, ablationCircuit(cfg), []int{4, 8, 16, 32}))
	}
	if !ran {
		fmt.Fprintln(os.Stderr, "nothing selected; try -all or see -help")
		flag.Usage()
		os.Exit(2)
	}
}

// ablationCircuit picks the clock-heavy circuit if available, otherwise
// the last configured one.
func ablationCircuit(cfg bench.Config) string {
	for _, c := range cfg.Circuits {
		if c == "avq.large" {
			return c
		}
	}
	if len(cfg.Circuits) == 0 {
		return "avq.large"
	}
	return cfg.Circuits[len(cfg.Circuits)-1]
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchtab: "+format+"\n", args...)
	os.Exit(1)
}
