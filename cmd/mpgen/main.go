// Command mpgen regenerates the mp message set's derived artifacts: the
// per-package mpwire_gen.go codec files and the mp_protocol.json manifest.
// Run it via `go generate ./...` (internal/parallel and internal/mp carry
// the directives) or directly; `mpgen -check` verifies the checked-in
// output is current without writing, naming the first stale line of each
// file, and is wired into scripts/check.sh as the one drift gate (tier-1
// runs the same check as internal/mpgen's TestGeneratedOutputCurrent).
package main

import (
	"flag"
	"fmt"
	"os"

	"parroute/internal/mpgen"
)

func main() {
	check := flag.Bool("check", false, "verify generated files are current; write nothing")
	root := flag.String("root", ".", "directory inside the module to regenerate")
	flag.Parse()

	if *check {
		stale, err := mpgen.Check(*root)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if len(stale) > 0 {
			for _, f := range stale {
				fmt.Fprintf(os.Stderr, "mpgen: stale: %s\n", f)
			}
			fmt.Fprintln(os.Stderr, "mpgen: run `go generate ./...` (or `go run parroute/cmd/mpgen`) and commit the result")
			os.Exit(1)
		}
		return
	}

	wrote, err := mpgen.Write(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, f := range wrote {
		fmt.Println(f)
	}
}
