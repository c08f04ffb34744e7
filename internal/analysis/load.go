package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path the package was loaded as.
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds type-checker diagnostics when the loader runs
	// lenient (fixtures); a strict load fails on the first of these.
	TypeErrors []error
}

// Loader loads and type-checks packages of one module from source,
// using only the standard library: module-internal imports resolve to
// directories under the module root, everything else falls through to
// go/importer's source importer (which type-checks the standard
// library from $GOROOT/src). No export data, no go.sum, no x/tools.
type Loader struct {
	// Root is the module root directory (where go.mod lives).
	Root string
	// Module is the module path declared in go.mod.
	Module string
	// Lenient tolerates type errors instead of failing the load. The
	// fixture tests use it so a deliberately-broken testdata file still
	// produces a Package the analyzers can walk.
	Lenient bool

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Module: modPath,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   make(map[string]*Package),
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s", gomod)
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod. Tests and the CLI use it so icash-vet works from any
// directory inside the repository.
func FindModuleRoot(dir string) (string, error) {
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
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Expand resolves package patterns against the module. Supported forms
// mirror the go tool where this repo needs them: "./..." (every
// package under the root), "./x/..." (every package under x), and
// plain relative directories ("./internal/ssd").
func (l *Loader) Expand(patterns []string) ([]string, error) {
	var paths []string
	seen := make(map[string]bool)
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, pat := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "./"
			}
		}
		dir := filepath.Join(l.Root, filepath.FromSlash(pat))
		if !rec {
			if ip, ok := l.dirImportPath(dir); ok {
				add(ip)
				continue
			}
			return nil, fmt.Errorf("analysis: no Go package in %s", pat)
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if ip, ok := l.dirImportPath(path); ok {
				add(ip)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// dirImportPath maps a directory with buildable Go files to its
// module-relative import path.
func (l *Loader) dirImportPath(dir string) (string, bool) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil || len(bp.GoFiles) == 0 {
		return "", false
	}
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", false
	}
	if rel == "." {
		return l.Module, true
	}
	return l.Module + "/" + filepath.ToSlash(rel), true
}

// Load type-checks the package at import path (module-internal), or
// returns the cached result.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	return l.loadDir(dir, path)
}

// LoadDir type-checks the package in dir under an explicit import
// path. The fixture tests use it to mount testdata packages at paths
// the scoped analyzers react to (e.g. under icash/internal/).
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	return l.loadDir(dir, asPath)
}

func (l *Loader) loadDir(dir, path string) (*Package, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", path, err)
		}
		files = append(files, f)
	}
	pkg := &Package{
		Path: path,
		Dir:  dir,
		Fset: l.fset,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
		Files: files,
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	tpkg, err := conf.Check(path, l.fset, files, pkg.Info)
	if err != nil && !l.Lenient {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}

// loaderImporter routes module-internal imports back through the
// Loader and everything else to the standard-library source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// Vet loads every package matching patterns under root, builds the
// module-wide Program (summaries for the targets and every module
// dependency the load pulled in), runs the full analyzer catalog over
// each target, applies //lint:ignore suppressions with usage tracking
// (stale directives become staleignore findings), and returns the
// surviving findings in stable order.
func Vet(root string, patterns []string) ([]Finding, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	paths, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	prog := NewProgram(l)
	var findings []Finding
	for _, pkg := range pkgs {
		findings = append(findings, RunAnalyzers(Catalog(), pkg, prog)...)
	}
	findings = applyIgnoresTracked(pkgs, findings)
	sortFindings(findings)
	return findings, nil
}

// VetPackage runs the full catalog on one loaded package, applies its
// //lint:ignore directives, and reports the stale ones — the
// single-package version of Vet. The Program sees only this package, so
// interprocedural facts stop at its boundary.
func VetPackage(pkg *Package) []Finding {
	prog := newProgram()
	prog.addPackage(pkg)
	return applyIgnoresTracked([]*Package{pkg}, RunAnalyzers(Catalog(), pkg, prog))
}
