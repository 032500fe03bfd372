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

// Package is one loaded, type-checked package.
type Package struct {
	// PkgPath is the import path ("wile/internal/phy").
	PkgPath string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset positions every file in the loader.
	Fset *token.FileSet
	// Syntax holds the parsed non-test files, sorted by filename.
	Syntax []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info records type/object resolution for every expression in Syntax.
	Info *types.Info
}

// Loader parses and type-checks packages of the wile module plus their
// standard-library imports (resolved from GOROOT source, so no compiled
// export data or network access is needed). A Loader memoizes by import
// path and is not safe for concurrent use.
type Loader struct {
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module's declared path ("wile").
	ModulePath string

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader locates the enclosing module by walking up from dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if p, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(p), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
	}
}

// Import implements types.Importer: module packages are loaded from source,
// everything else is delegated to the GOROOT source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load type-checks the module package with the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return l.LoadDirAs(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), path)
}

// LoadDirAs type-checks the package in dir under the given import path.
// It is the entry point for fixture packages (testdata trees) that are not
// reachable by module patterns.
func (l *Loader) LoadDirAs(dir, pkgPath string) (*Package, error) {
	if pkg, ok := l.pkgs[pkgPath]; ok {
		return pkg, nil
	}
	if l.loading[pkgPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", pkgPath)
	}
	l.loading[pkgPath] = true
	defer func() { delete(l.loading, pkgPath) }()

	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go source files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(pkgPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, err)
	}
	pkg := &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    l.fset,
		Syntax:  files,
		Types:   tpkg,
		Info:    info,
	}
	l.pkgs[pkgPath] = pkg
	return pkg, nil
}

// goSources lists the non-test Go files in dir, sorted.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Expand resolves command-line patterns ("./...", "./internal/phy", an
// import-path-relative directory) against base into module import paths.
// Directories named testdata, hidden directories, directories without Go
// sources and nested modules (a directory with its own go.mod) are skipped,
// matching the go tool's pattern rules.
func (l *Loader) Expand(base string, patterns []string) ([]string, error) {
	var paths []string
	seen := make(map[string]bool)
	add := func(dir string) error {
		names, err := goSources(dir)
		if err != nil || len(names) == 0 {
			return err
		}
		pkgPath, err := l.importPathFor(dir)
		if err != nil {
			return err
		}
		if !seen[pkgPath] {
			seen[pkgPath] = true
			paths = append(paths, pkgPath)
		}
		return nil
	}
	for _, pat := range patterns {
		dir, recursive := strings.CutSuffix(pat, "...")
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" {
			dir = "."
		}
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(base, dir)
		}
		if !recursive {
			if err := add(dir); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != dir {
				return filepath.SkipDir
			}
			return add(path)
		})
		if err != nil {
			return nil, err
		}
	}
	return paths, nil
}

func (l *Loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil {
		return "", err
	}
	if rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}
