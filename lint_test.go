package parroute_test

import (
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"parroute/internal/lint"
)

// loadModule type-checks the module once for both tests below.
var loadModule = sync.OnceValues(func() (*lint.Module, error) { return lint.LoadModule(".") })

// TestParroutecheckClean is the tier-1 lint gate: every package of the
// module must pass the parroutecheck suite (the same rules `go run
// ./cmd/parroutecheck ./...` enforces). A failure here means either a
// real determinism/concurrency hazard or a missing //lint:allow
// annotation; see DESIGN.md's "Static analysis" section for the policy.
// scripts/check.sh skips it in its -race step: the parroutecheck step
// before it has run the same suite, and most of either test's time is the
// module load, which -race slows sixfold and makes no more telling.
func TestParroutecheckClean(t *testing.T) {
	mod, err := loadModule()
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
}

// TestForbiddenCalls holds the routing packages to the calls they must not
// make outside _test.go files; parroutecheck has no rule for these.
// scripts/check.sh runs it as a plain-build step of its own.
func TestForbiddenCalls(t *testing.T) {
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	// Each call (the loader skips _test.go files) with the files it is banned
	// in — every non-test file when in is nil — and how many uses are exempt
	// there.
	const insert = "(*parroute/internal/circuit.Circuit).InsertFeedthrough"
	forbidden := []struct {
		fn      string
		in      []string // slash-path fragments
		allowed int
		why     string
	}{
		// The per-call wrappers allocate fresh scratch on every net; they
		// exist for tests and diagnostics.
		{"parroute/internal/route.ConnectNodes", nil, 0, "build all nets with route.ConnectTrees"},
		{"parroute/internal/steiner.BuildNet", nil, 0, "drive a steiner.Builder"},
		// The row-partitioned drivers (and the steps and sub-circuit builder
		// they share) read base and build a block-sized sub-circuit from it; a
		// Clone there is each rank paying for rows it does not own again.
		// Net-wise is the exception — a rank routes nets through every
		// row, so netwise.go keeps its clone — as is RunBaseline in
		// parallel.go.
		{"(*parroute/internal/circuit.Circuit).Clone",
			[]string{"internal/parallel/rowwise.go", "internal/parallel/hybrid.go", "internal/parallel/rank.go", "internal/parallel/common.go"},
			0, "build from base with buildBlockCircuit"},
		// One-at-a-time insertion is O(row length) per feedthrough; the
		// routers insert through circuit.InsertFeedthroughRows. The two
		// exempt uses are the step-3 overflow paths (serial and net-wise),
		// which place a feedthrough the demand estimate missed.
		{insert, []string{"internal/route/", "internal/parallel/"}, 2, "insert in bulk with InsertFeedthroughRows"},
	}
	sites := make([][]string, len(forbidden))
	for _, pkg := range mod.Pkgs {
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			pos := mod.Fset.Position(id.Pos())
			file := filepath.ToSlash(pos.Filename)
			for i, f := range forbidden {
				if fn.FullName() == f.fn && (f.in == nil ||
					slices.ContainsFunc(f.in, func(frag string) bool { return strings.Contains(file, frag) })) {
					sites[i] = append(sites[i], pos.String())
				}
			}
		}
	}
	for i, f := range forbidden {
		if len(sites[i]) > f.allowed {
			slices.Sort(sites[i])
			t.Errorf("%s called at %d sites outside _test.go files, %d allowed: %s\n\t%s",
				f.fn, len(sites[i]), f.allowed, f.why, strings.Join(sites[i], "\n\t"))
		}
	}
}
