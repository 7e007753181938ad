package mpgen

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
// byte. It calls what `mpgen -check` calls, so tier-1 and CI hold one
// gate; regenerate with `go generate ./...` after changing a payload type.
func TestGeneratedOutputCurrent(t *testing.T) {
	stale, err := Check(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range stale {
		t.Errorf("stale: %s; run `go generate ./...`", line)
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
	if len(fa) < 3 {
		t.Fatalf("generator produced %d file(s), expected at least mp, parallel, and the manifest", len(fa))
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

// TestScanManifestShape asserts the protocol facts the rest of the module
// depends on: the payload set, the PR-4 flat prices now derived from
// layout, the reserved engine tag, and the tag→payload associations.
func TestScanManifestShape(t *testing.T) {
	man := scanRepo(t).Manifest
	if man.Schema != mpproto.SchemaVersion {
		t.Fatalf("schema = %q", man.Schema)
	}
	typeOf := func(pkg, name string) mpproto.TypeEntry {
		i := slices.IndexFunc(man.Types, func(e mpproto.TypeEntry) bool { return e.Package == pkg && e.Name == name })
		if i < 0 {
			t.Errorf("type %s.%s missing from manifest", pkg, name)
			return mpproto.TypeEntry{}
		}
		return man.Types[i]
	}
	tagOf := func(pkg, name string) mpproto.TagEntry {
		i := slices.IndexFunc(man.Tags, func(e mpproto.TagEntry) bool { return e.Package == pkg && e.Name == name })
		if i < 0 {
			t.Errorf("tag %s.%s missing from manifest", pkg, name)
			return mpproto.TagEntry{}
		}
		return man.Tags[i]
	}
	if want := []string{"parroute/internal/mp", "parroute/internal/parallel"}; !slices.Equal(man.Packages, want) {
		t.Errorf("manifest covers %v, want %v", man.Packages, want)
	}
	widths := map[string]int{
		"FakePinBatch":  13,
		"CrossingBatch": 12,
		"NodeBatch":     13,
	}
	for name, want := range widths {
		e := typeOf("parroute/internal/parallel", name)
		if e.FlatWidth != want || e.Kind != mpproto.TypeSlice || e.WireID == 0 {
			t.Errorf("%s: flatWidth %d kind %s wire id %d, want %d slice with an id", name, e.FlatWidth, e.Kind, e.WireID, want)
		}
	}
	if i := slices.IndexFunc(man.Types, func(e mpproto.TypeEntry) bool { return e.Package == "parroute/internal/mp" }); i >= 0 {
		t.Errorf("internal/mp declares payload %s: the engines relay only the builtins and the drivers' types", man.Types[i].Name)
	}
	if tag := tagOf("parroute/internal/mp", "tagBarrier"); !tag.Reserved || tag.Value != -2 {
		t.Errorf("tagBarrier: %+v", tag)
	}
	// Alltoall carries one value per rank: its tags record the element type.
	tagPayloads := map[string]string{
		"tagWires":       "parroute/internal/parallel.WireBatch",
		"tagSummary":     "parroute/internal/parallel.Summary",
		"tagFakePins":    "parroute/internal/parallel.FakePinBatch",
		"tagWiresRedist": "parroute/internal/parallel.WireBatch",
	}
	for tagName, want := range tagPayloads {
		if tag := tagOf("parroute/internal/parallel", tagName); !slices.Contains(tag.Payloads, want) {
			t.Errorf("%s payloads = %v, want %s", tagName, tag.Payloads, want)
		}
	}
	if len(man.Collectives) == 0 {
		t.Error("collective census is empty")
	}
}

// TestCheckReportsDrift exercises the drift gate end to end in a scratch
// module: Write must converge to a clean Check, and then every kind of
// protocol edit made without regenerating — a payload field, a tag value,
// a new tag, a new payload under an existing tag, a new type that shifts
// the wire ids — must come back from Check as stale files with the first
// differing line named, and a type sent without its //mp:payload marker —
// by Send or one per rank by Alltoall — as an error naming the send site.
func TestCheckReportsDrift(t *testing.T) {
	root, write := scratchTree(t)
	// msgs renders the scratch protocol file: PingMsg's fields, tagPing's
	// value, and whatever else the case declares.
	msgs := func(fields, tagValue, extra string) string {
		return "package mp\n\n// PingMsg is a scratch payload.\n//\n//mp:payload\ntype PingMsg struct {\n" + fields +
			"}\n\nconst tagPing = " + tagValue + "\n\nfunc ping(c Comm) error { return c.Send(1, tagPing, PingMsg{}) }\n\n" + extra
	}
	const baseFields = "\tSeq int\n\tHop int\n"
	write("internal/mp/msgs.go", msgs(baseFields, "7", ""))

	stale, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 2 || !strings.HasSuffix(stale[0], ": missing") {
		t.Fatalf("Check on a tree with no generated files = %q, want both reported missing", stale)
	}
	if _, err := Write(root); err != nil {
		t.Fatal(err)
	}
	if stale, err = Check(root); err != nil || len(stale) != 0 {
		t.Fatalf("Check after Write: stale %q, err %v", stale, err)
	}

	const codec, manifest = "internal/mp/mpwire_gen.go:", "mp_protocol.json:"
	cases := []struct {
		name string
		src  string
		want []string // one substring per stale line, in order
	}{
		{"field deleted", msgs("\tSeq int\n", "7", ""),
			[]string{codec, manifest + `32: - "flatWidth": 16, / + "flatWidth": 8,`}},
		{"field retyped", msgs("\tSeq int\n\tHop int32\n", "7", ""),
			[]string{codec, manifest + `32: - "flatWidth": 16, / + "flatWidth": 12,`}},
		{"tag value edited", msgs(baseFields, "8", ""),
			[]string{codec, manifest + ` - "value": 7, / + "value": 8,`}},
		{"tag added", msgs(baseFields, "7", "const tagPong = 9\n\nfunc pong(c Comm) (any, error) { c.Send(1, tagPong, 1); return c.Recv(1, tagPong) }\n"),
			[]string{codec, manifest}},
		{"payload added under an existing tag", msgs(baseFields, "7", "func count(c Comm) error { return c.Send(1, tagPing, 3) }\n"),
			[]string{codec, manifest + ` - "scratch/internal/mp.PingMsg" / + "int",`}},
		{"wire ids shifted", msgs(baseFields, "7", "// AckMsg sorts before PingMsg and takes its id.\n//\n//mp:payload\ntype AckMsg struct{ Seq int }\n"),
			[]string{codec, manifest}},
	}
	for _, tc := range cases {
		write("internal/mp/msgs.go", tc.src)
		stale, err := Check(root)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(stale) != len(tc.want) {
			t.Errorf("%s: stale = %q, want %d lines", tc.name, stale, len(tc.want))
			continue
		}
		for i, want := range tc.want {
			file, rest, _ := strings.Cut(want, ":")
			if !strings.HasPrefix(stale[i], file+":") || !strings.Contains(stale[i], strings.TrimSpace(rest)) {
				t.Errorf("%s: stale[%d] = %q, want %s with %q", tc.name, i, stale[i], file, rest)
			}
		}
	}

	// The one drift no byte compare can see: the manifest would be current
	// and still wrong.
	for op, body := range map[string]string{
		"Send":     "return c.Send(1, tagPing, Raw{})",
		"Alltoall": "_, err := Alltoall(c, tagPing, []Raw{{}, {}}); return err",
	} {
		write("internal/mp/msgs.go", msgs(baseFields, "7", "type Raw struct{ N int }\n\nfunc raw(c Comm) error { "+body+" }\n"))
		_, err = Check(root)
		if err == nil {
			t.Fatalf("Check accepted a type sent over mp by %s with no //mp:payload marker", op)
		}
		for _, want := range []string{"msgs.go:17:", op + " sends scratch/internal/mp.Raw", "//mp:payload"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("unmarked-type error %q does not mention %q", err, want)
			}
		}
	}
}

// TestChecksumWithoutMPPayloads: internal/mp's generated file carries
// WireProtocolChecksum, so mpgen emits it even when internal/mp declares
// no payload type, and a protocol edit that moves the checksum leaves that
// file stale for Check to report.
func TestChecksumWithoutMPPayloads(t *testing.T) {
	root, write := scratchTree(t)
	tags := func(value string) string {
		return "package mp\n\nconst tagPing = " + value + "\n\nfunc ping(c Comm) error { return c.Send(1, tagPing, 3) }\n"
	}
	write("internal/mp/tags.go", tags("7"))
	if _, err := Write(root); err != nil {
		t.Fatal(err)
	}
	gen, err := os.ReadFile(filepath.Join(root, "internal", "mp", GeneratedFileName))
	if err != nil {
		t.Fatalf("no generated file for an internal/mp without payloads: %v", err)
	}
	if !strings.Contains(string(gen), "WireProtocolChecksum = 0x") || strings.Contains(string(gen), "Register[") {
		t.Fatalf("generated file for an internal/mp without payloads:\n%s", gen)
	}
	write("internal/mp/tags.go", tags("8"))
	stale, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 2 || !strings.HasPrefix(stale[0], "internal/mp/"+GeneratedFileName+":") ||
		!strings.Contains(stale[0], "WireProtocolChecksum") || !strings.HasPrefix(stale[1], "mp_protocol.json:") {
		t.Fatalf("stale = %q, want the checksum line and the manifest", stale)
	}
}

// TestScanRefusesInterfaceField: a payload crosses the wire as concrete
// values, so a field of interface type — on the payload itself or on a
// batch element — is an error naming the type and the field.
func TestScanRefusesInterfaceField(t *testing.T) {
	for name, decl := range map[string]string{
		"Envelope": "type Envelope struct {\n\tSeq uint64\n\tV   any\n}\n",
		"Batch":    "type Batch []struct {\n\tN int\n\tV any\n}\n",
	} {
		root, write := scratchTree(t)
		write("internal/mp/msgs.go", "package mp\n\n// "+name+" is a scratch payload.\n//\n//mp:payload\n"+decl)
		_, err := Check(root)
		if err == nil {
			t.Fatalf("%s: Check accepted a payload with an interface field", name)
		}
		for _, want := range []string{name + ":", "field V:", "any"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", name, err, want)
			}
		}
	}
}

// scratchTree makes a scratch module holding scratchMP as its internal/mp
// and returns its root with a writer of module-relative files.
func scratchTree(t *testing.T) (string, func(rel, src string)) {
	t.Helper()
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
	write("internal/mp/mp.go", scratchMP)
	return root, write
}

// scratchMP is the minimal surface the scratch module needs from its own
// internal/mp: the Comm methods Scan classifies, and the helpers generated
// code references (emitted unqualified inside internal/mp).
const scratchMP = `package mp

import "encoding/binary"

type Comm interface {
	Send(to, tag int, v any) error
	Recv(from, tag int) (any, error)
}

func AppendUint32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }
func AppendUint64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

func WireUint32(data []byte) (uint32, []byte, error) { return binary.LittleEndian.Uint32(data), data[4:], nil }
func WireUint64(data []byte) (uint64, []byte, error) { return binary.LittleEndian.Uint64(data), data[8:], nil }

func Register[T any](id uint32) {}

func Alltoall[T any](c Comm, tag int, vs []T) ([]T, error) { return vs, nil }

var WireProtocolChecksum uint64
`
