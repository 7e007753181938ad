package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Module is a loaded, type-checked view of this Go module, built with only
// the standard library: packages are discovered by walking the tree from
// go.mod, parsed with go/parser, and checked with go/types. Imports inside
// the module resolve recursively through the same loader, so every
// analyzer sees the same ASTs; standard-library imports are read from the
// compiler's export data, which `go list -export std` locates (so loading
// needs `go` on PATH).
type Module struct {
	Root string // absolute directory containing go.mod
	Path string // module path from the go.mod "module" directive
	Fset *token.FileSet
	// Pkgs are the packages requested by LoadModule or LoadDirs, sorted by
	// import path. Dependencies loaded only to satisfy type-checking are
	// not listed.
	Pkgs []*Package
	// proto is the lazily built module-wide protocol index tag-discipline
	// reads; see protocolIndex in mpproto.go.
	proto *protoIndex
}

// Package is one type-checked package of the module.
type Package struct {
	Path  string // import path ("parroute/internal/route")
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// loader resolves imports for the type-checker: module-local paths are
// parsed and checked from source on demand; everything else is read from
// export data.
type loader struct {
	root string
	path string
	fset *token.FileSet
	std  types.Importer
	// exports maps each standard-library import path to its export data
	// file; filled by the first standard-library import.
	exports map[string]string
	pkgs    map[string]*Package
	// loading guards against import cycles, which the go toolchain rejects
	// anyway but would otherwise recurse forever here.
	loading map[string]bool
}

func newLoader(root, path string) *loader {
	l := &loader{
		root:    root,
		path:    path,
		fset:    token.NewFileSet(),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "gc", l.openExport)
	return l
}

// openExport opens the export data of a standard-library package. The
// file list comes from one `go list -export std`, run on first use; on a
// cold build cache that compiles the standard library once.
func (l *loader) openExport(path string) (io.ReadCloser, error) {
	if l.exports == nil {
		var stderr bytes.Buffer
		cmd := exec.Command("go", "list", "-export", "-f", "{{.ImportPath}} {{.Export}}", "std")
		cmd.Dir, cmd.Stderr = l.root, &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("lint: locating standard-library export data needs `go` on PATH: go list -export std: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
		}
		l.exports = map[string]string{}
		for _, line := range strings.Split(string(out), "\n") {
			if pkg, file, ok := strings.Cut(line, " "); ok && file != "" {
				l.exports[pkg] = file
			}
		}
	}
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(file)
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.path || strings.HasPrefix(path, l.path+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the module package with the given import
// path, memoized.
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.path)))
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses every non-test Go file of dir, in name order.
func (l *loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// importPathOf maps an absolute package directory to its import path.
func (l *loader) importPathOf(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.root)
	}
	if rel == "." {
		return l.path, nil
	}
	return l.path + "/" + filepath.ToSlash(rel), nil
}

// findModule walks up from dir to the directory containing go.mod and
// returns its absolute path plus the declared module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", fmt.Errorf("lint: %w", err)
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// LoadModule loads every package of the module containing dir, skipping
// testdata and hidden directories (the same set `go build ./...` sees).
func LoadModule(dir string) (*Module, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := newLoader(root, path)
	var pkgDirs []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(p)
			if len(pkgDirs) == 0 || pkgDirs[len(pkgDirs)-1] != dir {
				pkgDirs = append(pkgDirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	return l.finish(pkgDirs)
}

// LoadDirs loads the specific package directories (relative paths resolve
// against dir), including directories under testdata that LoadModule
// skips. The module is located from dir.
func LoadDirs(dir string, pkgDirs []string) (*Module, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := newLoader(root, path)
	abs := make([]string, len(pkgDirs))
	for i, d := range pkgDirs {
		if filepath.IsAbs(d) {
			abs[i] = filepath.Clean(d)
			continue
		}
		base, err := filepath.Abs(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		abs[i] = filepath.Join(base, d)
	}
	return l.finish(abs)
}

// finish loads each requested directory and assembles the Module.
func (l *loader) finish(pkgDirs []string) (*Module, error) {
	mod := &Module{Root: l.root, Path: l.path, Fset: l.fset}
	seen := map[string]bool{}
	for _, dir := range pkgDirs {
		path, err := l.importPathOf(dir)
		if err != nil {
			return nil, err
		}
		if seen[path] {
			continue
		}
		seen[path] = true
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		mod.Pkgs = append(mod.Pkgs, pkg)
	}
	sort.Slice(mod.Pkgs, func(i, j int) bool { return mod.Pkgs[i].Path < mod.Pkgs[j].Path })
	return mod, nil
}
