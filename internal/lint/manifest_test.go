package lint_test

import (
	"strings"
	"testing"

	"parroute/internal/lint"
)

// TestManifestDriftFixture pins every manifest cross-check against the
// deliberately stale mp_protocol.json committed beside
// testdata/src/manifestdrift: marked-but-missing payloads, un-flat
// payloads, stale manifest entries, unpriced send payloads, tag value
// drift, missing tags, tag-site payload-set drift, and wire-codec
// registrations whose id or type the manifest does not record.
func TestManifestDriftFixture(t *testing.T) {
	diags := loadFixture(t, "testdata/src/manifestdrift")
	wants := []struct{ rule, substr string }{
		{"manifest-drift", "payload MissingBatch is missing from mp_protocol.json"},
		{"manifest-drift", "payload BadMsg has no flat wire layout"},
		{"manifest-drift", "mp_protocol.json entry GhostBatch has no //mp:payload type in this package"},
		{"manifest-drift", "payload type parroute/internal/lint/testdata/src/manifestdrift.UnpricedMsg is sent over mp but not priced by mp_protocol.json"},
		{"manifest-drift", "wire codec for parroute/internal/lint/testdata/src/manifestdrift.DriftBatch registered under id 7 but mp_protocol.json records wireId 6"},
		{"manifest-drift", "wire codec registered for parroute/internal/lint/testdata/src/manifestdrift.UnpricedMsg, which mp_protocol.json does not record"},
		{"tag-discipline", "tag tagDrift = 11 but mp_protocol.json records 12"},
		{"tag-discipline", "tag tagMissing is not in mp_protocol.json's tag table"},
		{"send-recv-pairing", "Send sends []int32 under tag tagPaired, but mp_protocol.json records payloads [int]"},
	}
	for _, w := range wants {
		found := false
		for _, d := range diags {
			if d.Rule == w.rule && strings.Contains(d.Msg, w.substr) {
				found = true
			}
		}
		if !found {
			t.Errorf("no %s diagnostic containing %q; got:\n%s", w.rule, w.substr, dumpDiags(diags))
		}
	}
	// Exactly these and nothing else: every tag in the fixture is paired
	// with a receive, so no orphan-tag or self-peer noise rides along.
	if len(diags) != len(wants) {
		t.Errorf("got %d diagnostics, want %d:\n%s", len(diags), len(wants), dumpDiags(diags))
	}
}

// TestManifestCoverageGate: a package outside every manifest's coverage
// list is exempt from the manifest checks even though the module-root
// manifest loads — the fixture packages under testdata must not be
// judged against the real protocol.
func TestManifestCoverageGate(t *testing.T) {
	diags := loadFixture(t, "testdata/src/selfsend")
	for _, d := range diags {
		if d.Rule == "manifest-drift" {
			t.Errorf("manifest-drift fired in an uncovered package: %s", d)
		}
		if strings.Contains(d.Msg, "mp_protocol.json") {
			t.Errorf("manifest cross-check fired in an uncovered package: %s", d)
		}
	}
}

func dumpDiags(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}
