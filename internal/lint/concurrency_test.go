package lint_test

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// concurrencyAnalyzers is the subset the lifecycle fixture exercises; the
// golden holds only their diagnostics, so it is insulated from the rest of
// the suite.
var concurrencyAnalyzers = []string{"goroutine-lifecycle", "lock-across-blocking", "unbounded-spawn"}

// TestConcurrencyAnalyzersGolden walks the three concurrency analyzers
// through their interprocedural reasoning on testdata/src/lifecycle:
// every violation there must fire at its pinned position, and every
// provably-safe twin (closed channel, ctx helper one call away,
// WaitGroup join, unlock-before-receive, semaphore and counted spawn
// loops) must stay quiet.
func TestConcurrencyAnalyzersGolden(t *testing.T) {
	var b strings.Builder
	for _, d := range loadFixture(t, "testdata/src/lifecycle") {
		if slices.Contains(concurrencyAnalyzers, d.Rule) {
			b.WriteString(d.String())
			b.WriteString("\n")
		}
	}
	want, err := os.ReadFile("testdata/lifecycle.golden")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("diagnostics diverge from testdata/lifecycle.golden:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}
