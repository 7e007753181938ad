// Command parroutecheck runs this repository's static-analysis suite: the
// determinism, error-handling, and message-tag rules in internal/lint that
// the parallel routing algorithms depend on.
//
// Usage:
//
//	parroutecheck [-list] [packages]
//
// With no arguments or "./..." it checks every package of the module
// containing the working directory. Explicit package directories (for
// example ./internal/lint/testdata/src/fixture) are checked even when they
// live under testdata, which the module walk skips.
//
// It needs `go` on PATH: the module is checked from source, but the
// standard library is read from the export data `go list -export std`
// locates.
//
// -list prints the registered rules with their one-line docs and exits.
// The driver-level rules lint-directive and stale-allow are not listed:
// they run with every suite.
//
// Exit status: 0 when clean, 1 when diagnostics were reported, 2 when the
// module could not be loaded or type-checked.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"parroute/internal/lint"
)

func main() {
	listRules := flag.Bool("list", false, "print the registered rules and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: parroutecheck [-list] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Checks the module (./...) or explicit package directories.\nNeeds go on PATH (standard-library export data comes from go list -export std).\nRules:\n")
		list(os.Stderr, "  ")
	}
	flag.Parse()
	if *listRules {
		list(os.Stdout, "")
		return
	}
	os.Exit(run(flag.Args()))
}

func list(w io.Writer, indent string) {
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(w, "%s%-22s %s\n", indent, a.Name, a.Doc)
	}
}

func run(args []string) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "parroutecheck: %v\n", err)
		return 2
	}
	wholeModule := len(args) == 0
	var dirs []string
	for _, a := range args {
		if a == "./..." || a == "all" {
			wholeModule = true
			continue
		}
		dirs = append(dirs, a)
	}

	var diags []lint.Diagnostic
	if wholeModule {
		mod, err := lint.LoadModule(cwd)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parroutecheck: %v\n", err)
			return 2
		}
		diags = append(diags, lint.Run(mod)...)
	}
	if len(dirs) > 0 {
		mod, err := lint.LoadDirs(cwd, dirs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parroutecheck: %v\n", err)
			return 2
		}
		diags = append(diags, lint.Run(mod)...)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "parroutecheck: %d diagnostic(s)\n", len(diags))
		return 1
	}
	return 0
}
