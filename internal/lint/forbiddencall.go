package lint

import (
	"go/types"
	"slices"
	"strings"
)

// analyzerForbiddenCall holds the routing packages to the calls they must
// not make outside _test.go files (which the loader never sees). Any use of
// the function counts, a method value as much as a call.
var analyzerForbiddenCall = &Analyzer{
	Name: "forbidden-call",
	Doc:  "forbid the per-call wrappers, whole-circuit clones and one-at-a-time insertions the routing packages have bulk forms for",
	Run:  runForbiddenCall,
}

// forbiddenCalls lists each banned function with the files it is banned in
// (slash-path fragments of the module-relative name; every file when in is
// nil) and what to do instead.
var forbiddenCalls = []struct {
	fn  string
	in  []string
	why string
}{
	// The per-call wrapper allocates fresh scratch on every net; it exists
	// for tests and diagnostics.
	{"parroute/internal/steiner.BuildNet", nil, "drive a steiner.Builder"},
	// The routers route a circuit.Fork, which shares every array: each
	// writer after construction builds fresh ones, so a whole-circuit Clone
	// is a copy of what steps 1–2 only read.
	{"(*parroute/internal/circuit.Circuit).Clone",
		[]string{"internal/route/", "internal/parallel/", "internal/service/"},
		"fork it"},
	// One-at-a-time insertion rebuilds every table per feedthrough; the
	// routers insert through circuit.InsertFeedthroughRows. The step-3 overflow
	// paths (serial and net-wise), which place a feedthrough the demand
	// estimate missed, carry the two //lint:allow.
	{"(*parroute/internal/circuit.Circuit).InsertFeedthrough",
		[]string{"internal/route/", "internal/parallel/"},
		"insert in bulk with InsertFeedthroughRows"},
}

func runForbiddenCall(p *Pass) {
	for id, obj := range p.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		name := fn.FullName()
		for _, f := range forbiddenCalls {
			if name != f.fn {
				continue
			}
			file := p.Mod.relFile(p.Mod.Fset.Position(id.Pos()))
			if f.in == nil || underTestdata(file) ||
				slices.ContainsFunc(f.in, func(frag string) bool { return strings.Contains(file, frag) }) {
				p.Reportf(id.Pos(), "%s must not be used here: %s", f.fn, f.why)
			}
		}
	}
}
