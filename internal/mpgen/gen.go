package mpgen

import (
	"bytes"
	"fmt"
	"go/format"
	"go/types"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strings"

	"parroute/internal/mpproto"
)

// Generate renders every output file: one mpwire_gen.go per payload
// package plus the root mp_protocol.json. Keys are module-root-relative
// slash paths.
func (m *Model) Generate() (map[string][]byte, error) {
	// The manifest is encoded first: its FNV-1a/64 hash is emitted into
	// internal/mp as WireProtocolChecksum, the build fingerprint the TCP
	// rendezvous hello carries so processes built against different
	// protocol revisions refuse to form a mesh.
	manifest, err := m.Manifest.Encode()
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	_, _ = h.Write(manifest) // hash.Hash.Write never fails
	checksum := h.Sum64()

	out := map[string][]byte{mpproto.ManifestName: manifest}
	for _, gp := range m.Pkgs {
		src, err := m.genPackage(gp, checksum)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(m.Root, gp.Dir)
		if err != nil {
			return nil, fmt.Errorf("mpgen: %w", err)
		}
		out[filepath.ToSlash(filepath.Join(rel, GeneratedFileName))] = src
	}
	return out, nil
}

// emitter accumulates one generated file, tracking the imports the
// emitted code actually references.
type emitter struct {
	buf     bytes.Buffer
	pkg     *types.Package // target package
	mpPath  string         // the module's internal/mp import path
	imports map[string]string
	tmp     int // unique temp-variable counter, reset per function
}

func (e *emitter) pf(format string, args ...any) {
	fmt.Fprintf(&e.buf, format, args...)
}

// qual renders t in Go syntax as seen from the target package, recording
// imports for foreign packages.
func (e *emitter) qual(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string {
		if p == e.pkg {
			return ""
		}
		e.imports[p.Path()] = p.Name()
		return p.Name()
	})
}

// mpq is the prefix of a helper in internal/mp: empty when generating
// into mp itself.
func (e *emitter) mpq() string {
	if e.pkg.Path() == e.mpPath {
		return ""
	}
	e.imports[e.mpPath] = "mp"
	return "mp."
}

// next returns a fresh numbered temp name.
func (e *emitter) next(prefix string) string {
	e.tmp++
	return fmt.Sprintf("%s%d", prefix, e.tmp)
}

func (m *Model) genPackage(gp *GenPackage, checksum uint64) ([]byte, error) {
	mpPath := mpproto.MPPath(m.Module)
	e := &emitter{pkg: gp.Pkg, mpPath: mpPath, imports: map[string]string{}}

	var body bytes.Buffer
	bodyE := &emitter{pkg: gp.Pkg, mpPath: mpPath, imports: e.imports}
	for i := range gp.Types {
		if err := bodyE.emitType(&gp.Types[i]); err != nil {
			return nil, fmt.Errorf("mpgen: %s.%s: %w", gp.Path, gp.Types[i].Name, err)
		}
	}
	bodyE.emitRegistration(gp, checksum)
	body = bodyE.buf

	e.pf("// Code generated by mpgen from the //mp:payload types of this package; DO NOT EDIT.\n")
	e.pf("//\n")
	e.pf("// Flat %s codecs, pricing, and registration (mp.Payload) for the mp\n", "parroute-mpwire/1")
	e.pf("// message set, kept in lockstep with mp_protocol.json. Regenerate with\n")
	e.pf("// `go generate ./...` (or `go run %s/cmd/mpgen`); `mpgen -check`\n", m.Module)
	e.pf("// gates CI against stale output.\n\n")
	e.pf("package %s\n\n", gp.Pkg.Name())
	if len(e.imports) > 0 {
		paths := make([]string, 0, len(e.imports))
		for p := range e.imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		e.pf("import (\n")
		for _, p := range paths {
			e.pf("\t%q\n", p)
		}
		e.pf(")\n\n")
	}
	e.buf.Write(body.Bytes())

	src, err := format.Source(e.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("mpgen: generated source does not parse: %w\n%s", err, e.buf.Bytes())
	}
	return src, nil
}

// emitType writes the WireSize, AppendWire and DecodeWire methods of one
// payload type.
func (e *emitter) emitType(pt *PayloadType) error {
	if err := e.emitWireSize(pt); err != nil {
		return err
	}
	if err := e.emitAppend(pt); err != nil {
		return err
	}
	return e.emitDecode(pt)
}

// ---- WireSize ----

func (e *emitter) emitWireSize(pt *PayloadType) error {
	e.pf("// WireSize prices %s at its flat per-field width (see mp.Payload and\n", pt.Name)
	e.pf("// mp_protocol.json); derived from the struct layout by mpgen.\n")
	switch u := pt.Type.Underlying().(type) {
	case *types.Slice:
		e.pf("func (b %s) WireSize() int { return len(b) * %d }\n\n", pt.Name, pt.Entry.FlatWidth)
		return nil
	case *types.Struct:
		fixed := 0
		var terms []string
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			path := "b." + f.Name()
			switch ft := f.Type().Underlying().(type) {
			case *types.Slice:
				w, err := mpproto.FlatWidth(ft.Elem())
				if err != nil {
					return err
				}
				terms = append(terms, fmt.Sprintf("len(%s)*%d", path, w))
			default:
				w, err := mpproto.FlatWidth(f.Type())
				if err != nil {
					return err
				}
				fixed += w
			}
		}
		expr := fmt.Sprintf("%d", fixed)
		if fixed == 0 && len(terms) > 0 {
			expr = strings.Join(terms, " + ")
		} else if len(terms) > 0 {
			expr = expr + " + " + strings.Join(terms, " + ")
		}
		e.pf("func (b %s) WireSize() int { return %s }\n\n", pt.Name, expr)
		return nil
	}
	return fmt.Errorf("unsupported payload kind %T", pt.Type.Underlying())
}

// ---- AppendWire ----

func (e *emitter) emitAppend(pt *PayloadType) error {
	e.pf("// AppendWire appends b's %s body to buf.\n", "parroute-mpwire/1")
	e.pf("func (b %s) AppendWire(buf []byte) ([]byte, error) {\n", pt.Name)
	e.tmp = 0
	var err error
	switch u := pt.Type.Underlying().(type) {
	case *types.Slice:
		err = e.emitAppendSlice("b", u, 1)
	case *types.Struct:
		err = e.emitAppendStruct("b", u, 1)
	default:
		err = fmt.Errorf("unsupported payload kind %T", u)
	}
	if err != nil {
		return err
	}
	e.pf("\treturn buf, nil\n}\n\n")
	return nil
}

func ind(depth int) string { return strings.Repeat("\t", depth) }

func (e *emitter) emitAppendStruct(path string, s *types.Struct, depth int) error {
	for i := 0; i < s.NumFields(); i++ {
		if err := e.emitAppendValue(path+"."+s.Field(i).Name(), s.Field(i).Type(), depth); err != nil {
			return err
		}
	}
	return nil
}

func (e *emitter) emitAppendSlice(path string, s *types.Slice, depth int) error {
	e.pf("%sbuf = %sAppendUint32(buf, uint32(len(%s)))\n", ind(depth), e.mpq(), path)
	i := e.next("i")
	e.pf("%sfor %s := range %s {\n", ind(depth), i, path)
	if err := e.emitAppendValue(fmt.Sprintf("%s[%s]", path, i), s.Elem(), depth+1); err != nil {
		return err
	}
	e.pf("%s}\n", ind(depth))
	return nil
}

func (e *emitter) emitAppendValue(path string, t types.Type, depth int) error {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Kind() == types.Bool:
			e.pf("%sbuf = %sAppendBool(buf, bool(%s))\n", ind(depth), e.mpq(), path)
		case u.Kind() == types.String:
			e.pf("%sbuf = %sAppendString(buf, string(%s))\n", ind(depth), e.mpq(), path)
		case mpproto.BasicWidth(u) == 1:
			e.pf("%sbuf = append(buf, byte(%s))\n", ind(depth), path)
		case mpproto.BasicWidth(u) == 4:
			e.pf("%sbuf = %sAppendUint32(buf, uint32(%s))\n", ind(depth), e.mpq(), path)
		case mpproto.BasicWidth(u) == 8:
			e.pf("%sbuf = %sAppendUint64(buf, uint64(%s))\n", ind(depth), e.mpq(), path)
		default:
			return fmt.Errorf("unsupported basic type %s", t)
		}
	case *types.Struct:
		return e.emitAppendStruct(path, u, depth)
	case *types.Slice:
		return e.emitAppendSlice(path, u, depth)
	default:
		return fmt.Errorf("unsupported type %s", t)
	}
	return nil
}

// ---- DecodeWire ----

func (e *emitter) emitDecode(pt *PayloadType) error {
	e.pf("// DecodeWire decodes a %s body from data into b, returning\n", "parroute-mpwire/1")
	e.pf("// the unconsumed remainder.\n")
	e.pf("func (b *%s) DecodeWire(data []byte) ([]byte, error) {\n", pt.Name)
	e.pf("\tvar err error\n")
	e.tmp = 0
	var err error
	switch u := pt.Type.Underlying().(type) {
	case *types.Slice:
		err = e.emitDecodeSlice("(*b)", pt.Name, u, 1)
	case *types.Struct:
		err = e.emitDecodeStruct("b", u, 1)
	default:
		err = fmt.Errorf("unsupported payload kind %T", u)
	}
	if err != nil {
		return err
	}
	e.pf("\treturn data, nil\n}\n\n")
	return nil
}

func (e *emitter) checkErr(depth int) {
	e.pf("%sif err != nil {\n%s\treturn nil, err\n%s}\n", ind(depth), ind(depth), ind(depth))
}

func (e *emitter) emitDecodeStruct(path string, s *types.Struct, depth int) error {
	for i := 0; i < s.NumFields(); i++ {
		if err := e.emitDecodeValue(path+"."+s.Field(i).Name(), s.Field(i).Type(), depth); err != nil {
			return err
		}
	}
	return nil
}

// emitDecodeSlice decodes into target, whose Go type is typ: fixed-width
// elements, found and sized by a dry run of emitDecodeAt, at their offsets.
func (e *emitter) emitDecodeSlice(target, typ string, s *types.Slice, depth int) error {
	w, flat := (&emitter{pkg: e.pkg, mpPath: e.mpPath, imports: map[string]string{}}).emitDecodeAt("", s.Elem(), 0, 0)
	n := e.next("n")
	e.pf("%svar %s int\n", ind(depth), n)
	e.pf("%s%s, data, err = %sWireCount(data, %d)\n", ind(depth), n, e.mpq(), max(w, 1))
	e.checkErr(depth)
	sl := e.next("sl")
	if flat && w > 0 {
		e.pf("%s%s := make(%s, %s)\n%sfor i := range %s {\n", ind(depth), sl, typ, n, ind(depth), sl)
		e.pf("%sat := (*[%d]byte)(data[%d*i:])\n", ind(depth+1), w, w)
		e.emitDecodeAt(sl+"[i]", s.Elem(), 0, depth+1)
		e.pf("%s}\n%sdata = data[%d*%s:]\n%s%s = %s\n", ind(depth), ind(depth), w, n, ind(depth), target, sl)
		return nil
	}
	e.pf("%s%s := make(%s, 0, %s)\n", ind(depth), sl, typ, n)
	i := e.next("i")
	el := e.next("el")
	e.pf("%sfor %s := 0; %s < %s; %s++ {\n", ind(depth), i, i, n, i)
	e.pf("%svar %s %s\n", ind(depth+1), el, e.qual(s.Elem()))
	if err := e.emitDecodeValue(el, s.Elem(), depth+1); err != nil {
		return err
	}
	e.pf("%s%s = append(%s, %s)\n", ind(depth+1), sl, sl, el)
	e.pf("%s}\n", ind(depth))
	e.pf("%s%s = %s\n", ind(depth), target, sl)
	return nil
}

// emitDecodeAt reads t into path from byte off of at, a fixed-width element,
// and returns the offset after it; false if t is not fixed-width.
func (e *emitter) emitDecodeAt(path string, t types.Type, off, depth int) (int, bool) {
	if s, ok := t.Underlying().(*types.Struct); ok {
		flat := true
		for i := 0; i < s.NumFields() && flat; i++ {
			off, flat = e.emitDecodeAt(path+"."+s.Field(i).Name(), s.Field(i).Type(), off, depth)
		}
		return off, flat
	}
	u, ok := t.Underlying().(*types.Basic)
	switch {
	case !ok || u.Kind() == types.String:
		return 0, false // strings and slices are length-prefixed
	case u.Kind() == types.Bool:
		e.pf("%sif err = %sCheckBool(at[%d]); err != nil {\n%s\treturn nil, err\n%s}\n%s%s = at[%d] == 1\n",
			ind(depth), e.mpq(), off, ind(depth), ind(depth), ind(depth), path, off)
	case mpproto.BasicWidth(u) == 1:
		e.pf("%s%s = %s(at[%d])\n", ind(depth), path, e.qual(t), off)
	default:
		e.imports["encoding/binary"] = "binary"
		e.pf("%s%s = %s(binary.LittleEndian.Uint%d(at[%d:]))\n", ind(depth), path, e.qual(t), 8*mpproto.BasicWidth(u), off)
	}
	return off + mpproto.BasicWidth(u), true
}

func (e *emitter) emitDecodeValue(path string, t types.Type, depth int) error {
	assign := func(helper, cast string) {
		v := e.next("v")
		e.pf("%svar %s %s\n", ind(depth), v, helperTemp(helper))
		e.pf("%s%s, data, err = %s%s(data)\n", ind(depth), v, e.mpq(), helper)
		e.checkErr(depth)
		if cast == "" {
			e.pf("%s%s = %s\n", ind(depth), path, v)
		} else {
			e.pf("%s%s = %s(%s)\n", ind(depth), path, cast, v)
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		cast := castFor(e, t)
		switch {
		case u.Kind() == types.Bool:
			assign("WireBool", cast)
		case u.Kind() == types.String:
			assign("WireString", cast)
		case mpproto.BasicWidth(u) == 1:
			assign("WireByte", e.qual(t))
		case mpproto.BasicWidth(u) == 4:
			assign("WireUint32", e.qual(t))
		case mpproto.BasicWidth(u) == 8:
			assign("WireUint64", e.qual(t))
		default:
			return fmt.Errorf("unsupported basic type %s", t)
		}
	case *types.Struct:
		return e.emitDecodeStruct(path, u, depth)
	case *types.Slice:
		return e.emitDecodeSlice(path, e.qual(t), u, depth)
	default:
		return fmt.Errorf("unsupported type %s", t)
	}
	return nil
}

// castFor picks the conversion applied to a decoded temp: identity casts
// are harmless, so every named type is converted explicitly.
func castFor(e *emitter, t types.Type) string {
	u := t.Underlying().(*types.Basic)
	if u.Kind() == types.Bool && types.Identical(t, types.Typ[types.Bool].Underlying()) {
		return ""
	}
	if u.Kind() == types.String && types.Identical(t, types.Typ[types.String].Underlying()) {
		return ""
	}
	return e.qual(t)
}

// helperTemp maps a Wire helper to its temp's Go type.
func helperTemp(helper string) string {
	switch helper {
	case "WireBool":
		return "bool"
	case "WireString":
		return "string"
	case "WireByte":
		return "byte"
	case "WireUint32":
		return "uint32"
	case "WireUint64":
		return "uint64"
	}
	return "any"
}

// ---- registration glue ----

func (e *emitter) emitRegistration(gp *GenPackage, checksum uint64) {
	e.pf("func init() {\n")
	if gp.Path == e.mpPath {
		e.pf("\t// The protocol fingerprint the TCP rendezvous hello verifies:\n")
		e.pf("\t// the FNV-1a/64 hash of the generated mp_protocol.json bytes.\n")
		e.pf("\tWireProtocolChecksum = 0x%016x\n", checksum)
	}
	for i := range gp.Types {
		e.pf("\t%sRegister[%s](%d)\n", e.mpq(), gp.Types[i].Name, gp.Types[i].WireID)
	}
	e.pf("}\n")
}
