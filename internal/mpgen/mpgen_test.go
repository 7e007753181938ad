package mpgen

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"parroute/internal/mpproto"
)

var (
	scanOnce  sync.Once
	scanModel *Model
	scanErr   error
)

// scanRepo scans the real module once per test binary; a full source
// type-check is the expensive part and every test below reads the same
// model.
func scanRepo(t *testing.T) *Model {
	t.Helper()
	scanOnce.Do(func() { scanModel, scanErr = Scan(".") })
	if scanErr != nil {
		t.Fatalf("Scan: %v", scanErr)
	}
	return scanModel
}

// TestGeneratedOutputCurrent is the regenerate-and-diff golden for the
// whole generated surface: re-running the generator over the checked-in
// tree must reproduce every mpwire_gen.go and mp_protocol.json byte for
// byte. This is the same check `mpgen -check` runs in CI; regenerate
// with `go generate ./...` after changing a payload type.
func TestGeneratedOutputCurrent(t *testing.T) {
	m := scanRepo(t)
	files, err := m.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for rel, want := range files {
		got, err := os.ReadFile(filepath.Join(m.Root, filepath.FromSlash(rel)))
		if err != nil {
			t.Errorf("generated file missing on disk: %s (%v)", rel, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale: checked-in content differs from regeneration; run `go generate ./...`", rel)
		}
	}
	if len(files) < 3 {
		t.Fatalf("generator produced %d file(s), expected at least mp, parallel, and the manifest", len(files))
	}
}

// TestGenerateDeterministic pins the generator's output ordering: two
// scans of the same tree must agree byte for byte, or `mpgen -check`
// would flap in CI.
func TestGenerateDeterministic(t *testing.T) {
	a := scanRepo(t)
	b, err := Scan(".")
	if err != nil {
		t.Fatal(err)
	}
	fa, err := a.Generate()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(fa) != len(fb) {
		t.Fatalf("file sets differ: %d vs %d", len(fa), len(fb))
	}
	for rel := range fa {
		if !bytes.Equal(fa[rel], fb[rel]) {
			t.Errorf("%s differs between two scans of the same tree", rel)
		}
	}
}

// TestScanManifestShape asserts the protocol facts the rest of the PR
// depends on: the payload set, the PR-4 flat prices now derived from
// layout, the reserved engine tag, and the tag→payload associations the
// lint analyzers cross-check.
func TestScanManifestShape(t *testing.T) {
	man := scanRepo(t).Manifest
	if man.Schema != mpproto.SchemaVersion {
		t.Fatalf("schema = %q", man.Schema)
	}
	for _, pkg := range []string{"parroute/internal/mp", "parroute/internal/parallel"} {
		if !man.Covers(pkg) {
			t.Errorf("manifest does not cover %s", pkg)
		}
	}
	widths := map[string]int{
		"FakePinBatch":  25,
		"CrossingBatch": 24,
		"NodeBatch":     25,
	}
	for name, want := range widths {
		e := man.TypeByName("parroute/internal/parallel", name)
		if e == nil {
			t.Errorf("type %s missing from manifest", name)
			continue
		}
		if e.FlatWidth != want || e.Kind != mpproto.TypeSlice {
			t.Errorf("%s: flatWidth %d kind %s, want %d slice", name, e.FlatWidth, e.Kind, want)
		}
		if e.WireID == 0 {
			t.Errorf("%s has no wire id", name)
		}
	}
	if e := man.TypeByName("parroute/internal/mp", "chaosMsg"); e == nil || e.WireID == 0 {
		t.Errorf("chaosMsg missing or unregistered: %+v", e)
	}
	if tag := man.TagByName("parroute/internal/mp", "tagBarrier"); tag == nil || !tag.Reserved || tag.Value != -2 {
		t.Errorf("tagBarrier: %+v", tag)
	}
	tagPayloads := map[string]string{
		"tagWires":   "parroute/internal/parallel.WireBatch",
		"tagSummary": "parroute/internal/parallel.Summary",
	}
	for tagName, want := range tagPayloads {
		tag := man.TagByName("parroute/internal/parallel", tagName)
		if tag == nil {
			t.Errorf("tag %s missing", tagName)
			continue
		}
		found := false
		for _, p := range tag.Payloads {
			if p == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s payloads = %v, want %s", tagName, tag.Payloads, want)
		}
	}
	if len(man.Collectives) == 0 {
		t.Error("collective census is empty")
	}
}

// TestManifestOnDiskMatchesScan loads the committed mp_protocol.json and
// diffs each scanned type entry against it with the same layout diff the
// manifest-drift analyzer uses — a field-level drift message, not just a
// byte diff.
func TestManifestOnDiskMatchesScan(t *testing.T) {
	m := scanRepo(t)
	disk, err := mpproto.Load(filepath.Join(m.Root, mpproto.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	for _, gp := range m.Pkgs {
		for i := range gp.Types {
			want := &gp.Types[i].Entry
			got := disk.TypeByName(gp.Path, gp.Types[i].Name)
			if got == nil {
				t.Errorf("%s.%s missing from committed manifest", gp.Path, gp.Types[i].Name)
				continue
			}
			if diff := mpproto.DiffLayout(want, got); diff != "" {
				t.Errorf("%s.%s drifted: %s", gp.Path, gp.Types[i].Name, diff)
			}
		}
	}
}

// TestCheckReportsDrift exercises the CI gate end to end in a scratch
// module: a payload edit without regeneration must surface as stale
// files, and Write must converge to a clean Check.
func TestCheckReportsDrift(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	// A miniature mp so generated code (which imports the real helper
	// surface via the mp package path only when foreign) stays loadable:
	// payloads in the scratch module's own "internal/mp" get unqualified
	// helpers, so mirror the ones the codec emits.
	write("internal/mp/mp.go", scratchMP)
	write("internal/mp/msgs.go", `package mp

// PingMsg is a scratch payload.
//
//mp:payload
type PingMsg struct {
	Seq int
	Hop int
}

const tagPing = 7
`)

	stale, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) == 0 {
		t.Fatal("Check found nothing stale in a tree with no generated files")
	}
	if _, err := Write(root); err != nil {
		t.Fatal(err)
	}
	stale, err = Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 0 {
		t.Fatalf("Check still stale after Write: %v", stale)
	}

	// The acceptance scenario: delete a field, regenerate nothing — the
	// drift gate must fire on both the codec file and the manifest.
	write("internal/mp/msgs.go", `package mp

// PingMsg is a scratch payload.
//
//mp:payload
type PingMsg struct {
	Seq int
}

const tagPing = 7
`)
	stale, err = Check(root)
	if err != nil {
		t.Fatal(err)
	}
	wantStale := map[string]bool{
		"internal/mp/mpwire_gen.go": true,
		"mp_protocol.json":          true,
	}
	for _, rel := range stale {
		delete(wantStale, rel)
	}
	if len(wantStale) != 0 {
		t.Fatalf("field deletion not caught: stale=%v, missing=%v", stale, wantStale)
	}
}

// scratchMP is the minimal helper surface the generated code references
// when the target package path ends in internal/mp (helpers are emitted
// unqualified there).
const scratchMP = `package mp

import "encoding/binary"

func AppendUint32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }
func AppendUint64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

func WireUint32(data []byte) (uint32, []byte, error) { return binary.LittleEndian.Uint32(data), data[4:], nil }
func WireUint64(data []byte) (uint64, []byte, error) { return binary.LittleEndian.Uint64(data), data[8:], nil }

func Register[T any](id uint32) {}
`
