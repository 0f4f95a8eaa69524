package analysis

import (
	"bytes"
	"encoding/json"
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
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package. FactsOnly marks a
// dependency loaded solely so analyzers can export facts from it: it is
// analyzed before its dependents, but its diagnostics are not reported
// (the user did not ask for that package).
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	FactsOnly bool
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	ImportMap  map[string]string
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load type-checks the packages matching the go list patterns (run from
// dir), resolving imports through compiler export data produced by
// `go list -export`. This works fully offline: the go toolchain builds
// export data for the standard library and module-local packages into the
// local build cache.
//
// Packages come back in dependency order (the `go list -deps` postorder),
// which is what lets facts exported while analyzing a dependency be
// imported while analyzing its dependents. Module-local packages that are
// pulled in only as dependencies of the requested patterns are loaded
// too, marked FactsOnly: their function bodies must be analyzed for the
// interprocedural analyzers to see through calls into them, but their
// diagnostics are not the caller's to report.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	importMap := make(map[string]string)
	var targets []*listedPackage
	factsOnly := make(map[string]bool)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			importMap[from] = to
		}
		switch {
		case !p.DepOnly:
			targets = append(targets, p)
		case p.Module != nil && p.Error == nil && len(p.GoFiles) > 0:
			// A module-local dependency of the requested set: analyze it
			// from source so its facts exist, without reporting on it.
			targets = append(targets, p)
			factsOnly[p.ImportPath] = true
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		if to, ok := importMap[path]; ok {
			path = to
		}
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var out []*Package
	for _, p := range targets {
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := typecheck(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg.FactsOnly = factsOnly[p.ImportPath]
		out = append(out, pkg)
	}
	return out, nil
}

// LoadFixture type-checks the fixture package rooted at dir together
// with its fixture dependencies, in dependency order (dependencies
// first, dir's own package last). It exists for analysistest fixtures,
// which live under testdata/ where the go tool will not list them.
//
// Imports resolve in two tiers: an import path naming a sibling
// directory of dir (testdata/src/a importing "b" finds testdata/src/b)
// is type-checked from source, recursively — this is what lets
// multi-package fixtures exercise cross-package facts; anything else —
// typically standard library — resolves through `go list -export`
// compiler export data.
func LoadFixture(dir string) ([]*Package, error) {
	fl := &fixtureLoader{
		root:    filepath.Dir(dir),
		fset:    token.NewFileSet(),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		exports: make(map[string]string),
	}
	if _, err := fl.load(filepath.Base(dir)); err != nil {
		return nil, err
	}
	return fl.order, nil
}

// fixtureLoader loads a tree of fixture packages under one testdata/src
// root, memoizing packages and stdlib export-data paths.
type fixtureLoader struct {
	root    string
	fset    *token.FileSet
	pkgs    map[string]*Package // by fixture import path
	loading map[string]bool     // cycle guard
	order   []*Package          // dependency order
	exports map[string]string   // stdlib import path -> export data file
	gc      types.Importer      // shared export-data importer
}

// Import implements types.Importer over the two-tier resolution.
func (fl *fixtureLoader) Import(path string) (*types.Package, error) {
	if fl.isFixture(path) {
		pkg, err := fl.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if fl.gc == nil {
		lookup := func(p string) (io.ReadCloser, error) {
			e, ok := fl.exports[p]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", p)
			}
			return os.Open(e)
		}
		fl.gc = importer.ForCompiler(fl.fset, "gc", lookup)
	}
	return fl.gc.Import(path)
}

// isFixture reports whether path names a sibling fixture directory.
func (fl *fixtureLoader) isFixture(path string) bool {
	if path == "" || strings.Contains(path, "..") {
		return false
	}
	info, err := os.Stat(filepath.Join(fl.root, filepath.FromSlash(path)))
	return err == nil && info.IsDir()
}

func (fl *fixtureLoader) load(path string) (*Package, error) {
	if pkg, ok := fl.pkgs[path]; ok {
		return pkg, nil
	}
	if fl.loading[path] {
		return nil, fmt.Errorf("fixture import cycle through %q", path)
	}
	fl.loading[path] = true
	defer delete(fl.loading, path)

	dir := filepath.Join(fl.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		goFiles = append(goFiles, name)
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(goFiles)

	// Parse first so we know which imports need export data and which
	// are sibling fixtures to load from source.
	var files []*ast.File
	var stdlib []string
	for _, name := range goFiles {
		f, err := parser.ParseFile(fl.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			if !fl.isFixture(p) {
				if _, have := fl.exports[p]; !have {
					stdlib = append(stdlib, p)
				}
			}
		}
	}
	if len(stdlib) > 0 {
		sort.Strings(stdlib)
		listed, err := goList(dir, stdlib...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				fl.exports[p.ImportPath] = p.Export
			}
		}
	}

	pkg, err := typecheckParsed(fl.fset, fl, path, files)
	if err != nil {
		return nil, err
	}
	fl.pkgs[path] = pkg
	fl.order = append(fl.order, pkg)
	return pkg, nil
}

func typecheck(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return typecheckParsed(fset, imp, path, files)
}

func typecheckParsed(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, TypesInfo: info}, nil
}

// goList runs `go list -e -export -deps -json` on the given patterns.
func goList(dir string, patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var out []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		out = append(out, &p)
	}
	return out, nil
}
