package repro_test

import (
	"go/ast"
	"go/types"
	"maps"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// reachKeep lists the non-test functions nothing reaches that stay on
// purpose, each with its reason; what a kept function calls is reached
// through it. An entry that is reached anyway, or whose function is gone,
// fails TestEveryFunctionReached the way an unused //lint:allow directive
// fails congestlint.
var reachKeep = map[string]string{
	"internal/graph.CSR.Validate":                          "oracle: gen's CSR-direct generator tests check the slabs they emit",
	"internal/graph.CutWeight":                             "oracle: the min-cut tests (mincut, graph, the facade) score returned cuts",
	"internal/graph.EdgeConnectivity":                      "oracle: checks graph.GlobalMinCut by max-flow",
	"internal/graph.VerifyCliqueMinor":                     "oracle: checks the witnesses HasCliqueMinorWitness returns to graphgen",
	"internal/graph.IsForest":                              "oracle: gen's tests check that RandomTree emits trees",
	"internal/graph.PlanarDensityOK":                       "oracle: embed and structure tests certify planar pieces",
	"internal/shortcut.Construct":                          "oracle: the fixed-cap sequential construction congest's ConstructShortcut and the flood measurement are checked against",
	"internal/tw.FoldRooted":                               "oracle: the materialized fold FoldSummary is checked against",
	"internal/gen.BalancedBinaryTree":                      "fixture: a small family TestBasicShapes pins, kept with the other gen families",
	"internal/gen.Complete":                                "fixture: a small family TestBasicShapes pins, kept with the other gen families",
	"internal/gen.ErdosRenyiConnected":                     "fixture: the random connected graph of most congest, shortcut, mst, mincut and partition tests",
	"internal/gen.KTreePiece":                              "fixture: clique-sum pieces for structure and core tests",
	"internal/gen.PartialKTree":                            "fixture: bounded-treewidth inputs for tw and shortcut tests",
	"internal/gen.RandomTree":                              "fixture: tree inputs for shortcut's flood-measurement tests",
	"internal/gen.Star":                                    "fixture: the star topology of congest's node-accessor and word-size tests",
	"internal/gen.TorusColumnsDecomposition":               "fixture: the genus-1 witness of tw's vortex and core's genus tests",
	"internal/experiments.Table.Cell":                      "fixture: experiments tests read table cells by column name",
	"internal/experiments.PointRNG":                        "fixture: the E6c showcase test regenerates a grid point's network",
	"internal/congest.Node.Neighbor":                       "fixture: the reference protocols in congest's tests read ports through it",
	"internal/congest.Node.PortEdge":                       "fixture: the reference protocols in congest's tests read ports through it",
	"internal/analysis/analysistest.Run":                   "analyzer test harness: every analyzer's fixture test runs through it",
	"internal/analysis/errflow.IncompleteSourceFact.AFact": "interface-only method: the analysis.Fact marker",
	"internal/analysis/hotalloc.AllocsFact.AFact":          "interface-only method: the analysis.Fact marker",
	"internal/analysis/hotalloc.HotFact.AFact":             "interface-only method: the analysis.Fact marker",
	"internal/analysis/purity.ImpureFact.AFact":            "interface-only method: the analysis.Fact marker",
	"internal/analysis/purity.PureFact.AFact":              "interface-only method: the analysis.Fact marker",
	"internal/xrand.pcgSource.Int63":                       "interface-only method: math/rand calls it through rand.Source",
	"internal/xrand.pcgSource.Seed":                        "interface-only method: part of rand.Source",
	"internal/xrand.pcgSource.Uint64":                      "interface-only method: math/rand calls it through rand.Source64",
	"internal/congest.IncompleteError.Error":               "interface-only method: fmt and errors call it through error",
	"internal/congest.IncompleteError.Unwrap":              "interface-only method: errors.Is calls it to match ErrIncomplete",
	"internal/analysis.fixtureLoader.Import":               "interface-only method: go/types calls it through types.Importer",
}

// TestEveryFunctionReached fails on every non-test function of the module
// that nothing reaches. A function is reached when a reached body refers to
// it, by calling it or by using it as a value. The roots are:
//   - every main and init;
//   - package-level initializers (the experiments registry stores its
//     runners as values);
//   - everything benchmark/'s non-test files refer to;
//   - the public surface of repro: its exported functions, and every
//     exported method of every type an importer reaches through its
//     aliases, exported fields, parameters and results.
//
// A call through an interface reaches every method with that name.
//
// The rule needs the whole program at once, which congestlint's vet mode
// never sees: there each unit is one package and facts flow only from
// dependencies to dependents, so "no caller anywhere" is a test here.
func TestEveryFunctionReached(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go command and type-checks the module")
	}
	// benchmark/ is a module of its own that requires this one through a
	// replace directive, so listing from there covers both in one load.
	pkgs, err := analysis.Load("benchmark", ".", "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	var failures []string
	stale := maps.Clone(reachKeep)
	for _, key := range unreachedFuncs(pkgs, nil) {
		delete(stale, key)
	}
	for key := range stale {
		failures = append(failures, key+": reachKeep entry is reached or no longer exists; remove it")
	}
	for _, key := range unreachedFuncs(pkgs, reachKeep) {
		failures = append(failures, key+": nothing reaches it; delete it or add it to reachKeep with a reason")
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}

// reachFunc is one declared function or method with a body.
type reachFunc struct {
	pkg  *analysis.Package
	decl *ast.FuncDecl
}

// unreachedFuncs applies the reachability rule to pkgs, which hold the
// module's packages and benchmark/'s main package, with the functions
// named in keep as extra roots, and returns the keys of the module's
// unreached functions, sorted.
func unreachedFuncs(pkgs []*analysis.Package, keep map[string]string) []string {
	funcs := make(map[string]*reachFunc)
	methodsByName := make(map[string][]string)
	var roots []string
	var rootExprs []refSite
	var facade *analysis.Package
	for _, pkg := range pkgs {
		if pkg.Path == "repro" {
			facade = pkg
		}
		bench := pkg.Path == "repro/benchmark"
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.TypesInfo.Defs[d.Name].(*types.Func)
					if !ok || d.Body == nil {
						continue
					}
					key := funcKey(fn)
					funcs[key] = &reachFunc{pkg: pkg, decl: d}
					if d.Recv != nil {
						methodsByName[fn.Name()] = append(methodsByName[fn.Name()], key)
					}
					top := d.Recv == nil
					switch {
					case bench,
						top && fn.Name() == "init",
						top && fn.Name() == "main" && pkg.Types.Name() == "main",
						top && pkg.Path == "repro" && fn.Exported():
						roots = append(roots, key)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for _, v := range vs.Values {
								rootExprs = append(rootExprs, refSite{pkg, v})
							}
						}
					}
				}
			}
		}
	}
	if facade != nil {
		roots = append(roots, facadeMethods(facade.Types)...)
	}

	reached := make(map[string]bool)
	ifaceNames := make(map[string]bool)
	var queue []string
	mark := func(key string) {
		if !reached[key] {
			reached[key] = true
			queue = append(queue, key)
		}
	}
	refs := func(site refSite) {
		ast.Inspect(site.node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := site.pkg.TypesInfo.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			fn = fn.Origin()
			if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				if !ifaceNames[fn.Name()] {
					ifaceNames[fn.Name()] = true
					for _, m := range methodsByName[fn.Name()] {
						mark(m)
					}
				}
				return true
			}
			mark(funcKey(fn))
			return true
		})
	}
	for _, key := range roots {
		mark(key)
	}
	for key := range keep {
		mark(key)
	}
	for _, site := range rootExprs {
		refs(site)
	}
	for len(queue) > 0 {
		key := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if f, ok := funcs[key]; ok {
			refs(refSite{f.pkg, f.decl})
		}
	}

	var out []string
	for key, f := range funcs {
		if !reached[key] && f.pkg.Path != "repro/benchmark" {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// refSite is a syntax subtree whose identifiers refer to functions.
type refSite struct {
	pkg  *analysis.Package
	node ast.Node
}

// funcKey names fn by its package path below the module, its receiver's
// type name and its own name: "internal/graph.CSR.Validate".
func funcKey(fn *types.Func) string {
	path := strings.TrimPrefix(fn.Pkg().Path(), "repro/")
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return path + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return path + "." + fn.Name()
}

// facadeMethods returns the keys of every exported method of every named
// type an importer of the facade reaches through its exported aliases,
// types, functions and variables, and from those through exported fields,
// embedded fields, parameters, results, elements and type arguments.
func facadeMethods(pkg *types.Package) []string {
	seen := make(map[types.Type]bool)
	var keys []string
	var walk func(t types.Type)
	walk = func(t types.Type) {
		t = types.Unalias(t)
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if p := t.Obj().Pkg(); p == nil || (p.Path() != "repro" && !strings.HasPrefix(p.Path(), "repro/")) {
				return
			}
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					keys = append(keys, funcKey(m.Origin()))
					walk(m.Type())
				}
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
			walk(t.Underlying())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			if _, isConst := obj.(*types.Const); !isConst {
				walk(obj.Type())
			}
		}
	}
	return keys
}
