package lint_test

import (
	"strings"
	"testing"

	"parroute/internal/lint"
)

// ruleCounts tallies diagnostics by rule name.
func ruleCounts(diags []lint.Diagnostic) map[string]int {
	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Rule]++
	}
	return counts
}

// TestOrphanTagsReported covers the module-wide half of tag-discipline:
// sent-never-received, received-never-sent, and declared-never-used tags
// each produce exactly one diagnostic at the constant's declaration.
func TestOrphanTagsReported(t *testing.T) {
	diags := loadFixture(t, "testdata/src/orphan")
	if got := ruleCounts(diags)["tag-discipline"]; got != 3 || len(diags) != 3 {
		t.Fatalf("got %d diagnostics (%d tag-discipline), want exactly 3 tag-discipline: %v",
			len(diags), got, diags)
	}
	wantSubstrings := map[string]string{
		"tagOnlySent": "never received",
		"tagOnlyRecv": "never sent",
		"tagUnused":   "never used",
	}
	for tag, substr := range wantSubstrings {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Msg, tag) && strings.Contains(d.Msg, substr) {
				found = true
			}
		}
		if !found {
			t.Errorf("no diagnostic for %s containing %q in %v", tag, substr, diags)
		}
	}
}
