package parroute_test

import (
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"parroute/internal/lint"
)

// TestParroutecheckClean is the tier-1 lint gate: every package of the
// module must pass the parroutecheck suite (the same rules `go run
// ./cmd/parroutecheck ./...` enforces). A failure here means either a
// real determinism/concurrency hazard or a missing //lint:allow
// annotation; see DESIGN.md's "Static analysis" section for the policy.
func TestParroutecheckClean(t *testing.T) {
	mod, err := lint.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run(mod, lint.DefaultConfig())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("fix the findings or annotate deliberate exceptions with //lint:allow <rule> <reason>")
	}

	// The per-call wrappers allocate fresh scratch on every net; they exist
	// for tests and diagnostics. The loader skips _test.go files, so any
	// use found here is production code that should drive a
	// route.Connector / steiner.Builder instead.
	slow := map[string]bool{
		"parroute/internal/route.ConnectNodes": true,
		"parroute/internal/steiner.BuildNet":   true,
	}
	// The row-partitioned drivers (and the sub-circuit builder they share)
	// read base and build a block-sized sub-circuit from it; a Clone there
	// is each rank paying for rows it does not own again. Net-wise is the
	// exception — a rank routes nets through every row, so netwise.go
	// keeps its clone — as is RunBaseline in parallel.go.
	const clone = "(*parroute/internal/circuit.Circuit).Clone"
	blockSized := []string{"internal/parallel/rowwise.go", "internal/parallel/hybrid.go", "internal/parallel/common.go"}
	for _, pkg := range mod.Pkgs {
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			pos := mod.Fset.Position(id.Pos())
			if slow[fn.FullName()] {
				t.Errorf("%s: %s called outside a _test.go file", pos, fn.FullName())
			}
			if fn.FullName() == clone && slices.ContainsFunc(blockSized, func(f string) bool {
				return strings.HasSuffix(filepath.ToSlash(pos.Filename), f)
			}) {
				t.Errorf("%s: circuit.Clone in a row-partitioned driver: build from base with buildBlockCircuit", pos)
			}
		}
	}
}
