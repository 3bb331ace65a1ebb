package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package plus its syntax.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages without the go command.
// Local imports (module packages, or fixture packages under a testdata
// root) are resolved against the root directory and type-checked from
// source recursively; everything else is assumed to be standard library
// and delegated to go/importer's "source" mode, which reads GOROOT.
// That keeps the driver self-contained: no network, no build cache, no
// export data — a bare toolchain checkout is enough.
type Loader struct {
	// ModulePath is the module's import-path prefix ("repro"). Empty for
	// fixture trees, where every import that names a directory under Root
	// is considered local (analysistest layout: root/<path>/*.go).
	ModulePath string
	// Root is the module root (directory holding go.mod) or the fixture
	// source root.
	Root string

	Fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*Package
	checking map[string]bool
}

// NewLoader returns a loader for the module rooted at dir (the
// directory containing go.mod).
func NewLoader(dir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	mod := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			mod = strings.TrimSpace(rest)
			break
		}
	}
	if mod == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", dir)
	}
	l := newLoader(dir)
	l.ModulePath = mod
	return l, nil
}

// NewFixtureLoader returns a loader for an analysistest-style source
// tree: root/<import path>/*.go.
func NewFixtureLoader(root string) *Loader {
	return newLoader(root)
}

func newLoader(root string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Root:     root,
		Fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     map[string]*Package{},
		checking: map[string]bool{},
	}
}

// ModuleRoot walks upward from dir to the nearest directory containing
// go.mod (how tests and the CLI find the module to analyze).
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		dir = parent
	}
}

// dirFor resolves an import path to a local directory, or reports that
// the path is not local (and therefore standard library).
func (l *Loader) dirFor(path string) (string, bool) {
	rel := ""
	switch {
	case l.ModulePath != "" && path == l.ModulePath:
		rel = "."
	case l.ModulePath != "" && strings.HasPrefix(path, l.ModulePath+"/"):
		rel = path[len(l.ModulePath)+1:]
	case l.ModulePath == "":
		rel = path
	default:
		return "", false
	}
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return "", false
	}
	return dir, true
}

// sourceFiles lists the non-test Go files of dir in name order.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		names = append(names, filepath.Join(dir, n))
	}
	sort.Strings(names)
	return names, nil
}

// Import implements types.Importer so Loader can be handed directly to
// types.Config. Local packages are (re)checked from source; everything
// else goes to the standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg.Types, nil
	}
	if dir, ok := l.dirFor(path); ok {
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load type-checks the package with the given import path (local to
// the loader's root) and returns it with full syntax and type info.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("analysis: %s is not under %s", path, l.Root)
	}
	return l.load(path, dir)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if l.checking[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	names, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// ModulePackages walks the module tree and returns the import paths of
// every package holding at least one non-test Go file, in lexical
// order. testdata, vendor and hidden directories are skipped, and so is
// every directory holding its own go.mod (a nested module, analyzed from
// its own root), matching the go tool's ./... expansion.
func (l *Loader) ModulePackages() ([]string, error) {
	if l.ModulePath == "" {
		return nil, fmt.Errorf("analysis: loader has no module")
	}
	var paths []string
	err := filepath.WalkDir(l.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.Root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if p != l.Root {
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		files, err := sourceFiles(p)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.Root, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.ModulePath)
		} else {
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
