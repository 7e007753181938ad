package lint_test

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"parroute/internal/lint"
)

// loadFixture loads one testdata package and runs the default suite.
func loadFixture(t *testing.T, dir string) []lint.Diagnostic {
	t.Helper()
	mod, err := lint.LoadDirs(".", []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	return lint.Run(mod)
}

// TestFixtureFiresEachRuleExactlyOnce is the contract of the fixture
// package: a fixed count of intentional violations per analyzer (one
// each, except tag-discipline, which demonstrates both its raw-literal
// and reserved-range halves, ctxrule, and forbidden-call, which fires once
// per row of its table), everything in allowed.go suppressed.
func TestFixtureFiresEachRuleExactlyOnce(t *testing.T) {
	diags := loadFixture(t, "testdata/src/fixture")
	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Rule]++
		if strings.Contains(d.File, "allowed.go") {
			t.Errorf("suppressed violation still reported: %s", d)
		}
	}
	total := 0
	for _, a := range lint.Analyzers() {
		want := 1
		if a.Name == "tag-discipline" {
			want = 2 // raw-literal site + reserved-range declaration
		}
		if a.Name == "ctxrule" {
			want = 2 // non-first ctx parameter + ctx stored in a struct field
		}
		if a.Name == "forbidden-call" {
			want = 3 // one per row of the analyzer's table
		}
		total += want
		if counts[a.Name] != want {
			t.Errorf("rule %s fired %d times, want exactly %d", a.Name, counts[a.Name], want)
		}
	}
	if len(diags) != total {
		t.Errorf("got %d diagnostics, want %d", len(diags), total)
	}
}

// TestFixtureGolden pins the exact positions and messages.
func TestFixtureGolden(t *testing.T) {
	diags := loadFixture(t, "testdata/src/fixture")
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	want, err := os.ReadFile("testdata/fixture.golden")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("diagnostics diverge from testdata/fixture.golden:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestMalformedAllowDirective: a //lint:allow without a reason is itself
// reported and suppresses nothing; a valid one that trails code covers its
// own line and not the panic on the next (Twice's second), while one alone
// on its line covers the line below (Twice's third).
func TestMalformedAllowDirective(t *testing.T) {
	var got []string
	for _, d := range loadFixture(t, "testdata/src/badallow") {
		got = append(got, fmt.Sprintf("%d:%s", d.Line, d.Rule))
	}
	want := []string{"8:lint-directive", "8:panic-in-library", "16:panic-in-library"}
	if !slices.Equal(got, want) {
		t.Errorf("got diagnostics %v, want %v", got, want)
	}
}

// TestStaleAllowAudit pins the audit's two messages — a healed known
// rule and an unknown rule name — and proves the escape hatch keeps the
// deliberately retained directive quiet (the fixture's third directive
// produces no line below).
func TestStaleAllowAudit(t *testing.T) {
	diags := loadFixture(t, "testdata/src/staleallow")
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	want, err := os.ReadFile("testdata/staleallow.golden")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("diagnostics diverge from testdata/staleallow.golden:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestModuleIsClean is the lint gate: every package of the module must
// pass the whole suite. A failure here means either a real
// determinism/concurrency hazard or a missing //lint:allow annotation; see
// DESIGN.md's "Static analysis" section for the policy. scripts/check.sh
// runs it alone as its lint step and skips it in its -race step, where
// -race makes static analysis no more telling.
func TestModuleIsClean(t *testing.T) {
	mod, err := lint.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Pkgs) < 15 {
		t.Fatalf("module walk found only %d packages; loader is skipping code", len(mod.Pkgs))
	}
	for _, d := range lint.Run(mod) {
		t.Errorf("%s", d)
	}
}

// TestDefaultConfigScope guards the import path LoadDirs gives a fixture
// package, which the testdata scoping of the rules keys on.
func TestDefaultConfigScope(t *testing.T) {
	mod, err := lint.LoadDirs(".", []string{"testdata/src/fixture"})
	if err != nil {
		t.Fatal(err)
	}
	if mod.Path != "parroute" {
		t.Errorf("module path = %q, want parroute", mod.Path)
	}
	if len(mod.Pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(mod.Pkgs))
	}
	if got := mod.Pkgs[0].Path; got != "parroute/internal/lint/testdata/src/fixture" {
		t.Errorf("fixture import path = %q", got)
	}
}
