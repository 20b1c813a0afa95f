package simrt

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportAllowlist names the exports under internal/ that may still lack a
// production caller, each with the ROADMAP open item that gives it one or
// removes it. It is a ceiling: an entry goes when its item lands, and a new
// one is added only on purpose, in the diff, where a reviewer sees it.
var exportAllowlist = map[string]string{
	// What the shape claims read of a figure's result, and of a workload.
	"dag.Graph.Parallelism":                      "item 9: the fidelity table reports each workload's DAG parallelism",
	"experiments.Fig10Result.Get":                "item 9: the fidelity table reads the claims",
	"experiments.Fig5Result.CoreTime":            "item 9: the fidelity table reads the claims",
	"experiments.Fig5Result.Share":               "item 9: the fidelity table reads the claims",
	"experiments.Fig8Result.Spread":              "item 9: the fidelity table reads the claims",
	"experiments.Fig9Result.MeanSettledIterTime": "item 9: the fidelity table reads the claims",
	"experiments.Fig9Result.WideShare":           "item 9: the fidelity table reads the claims",
	"experiments.ThroughputGrid.Get":             "item 9: the fidelity table reads the claims",
	// The sim reference tests stop an engine mid-batch with it.
	"sim.Engine.Stop": "item 4(c): the cancellation seam that stops a running cell",
	// Test seam: another package's tests build exact values through it,
	// which no production path hands out.
	"metrics.Iters.Append": "item 12: the hostile-result fingerprint tests build NaN and ±Inf iteration times, which no run produces",
}

// TestEveryExportHasAProductionCaller is the export ratchet (ROADMAP aim 2:
// no export without a non-test caller). It type-checks every non-test file
// in the module — internal/, cmd/ and bench/, which counts as a caller — and
// flags each exported package-level identifier, and each exported method of
// an exported type, under internal/ that no non-test file of another package
// uses: such a name is dead or wants unexporting. A type is the exception: a
// use inside its own package counts, because an exported signature another
// package calls can name it. A method that implements a method of an
// interface declared in the module, or exported by a standard package the
// module imports, counts as called: a call through the interface names only
// the interface's method. So does an interface's method when a type of
// another package implements it. A flagged name outside exportAllowlist
// fails the test with its file:line, and so does an allowlisted name that
// has gained a caller or is gone.
func TestEveryExportHasAProductionCaller(t *testing.T) {
	mod := loadModule(t)
	fset, paths, used, usedOutside, viaInterface := mod.fset, mod.paths, mod.used, mod.usedOutside, mod.viaInterface

	// implementedOutside reports whether a named type of another package in
	// the module implements it: a call through it may run that type's method.
	implementedOutside := func(it *types.Interface, home *types.Package) bool {
		for _, ip := range paths {
			pkg := mod.pkgs[ip]
			if pkg == home {
				continue
			}
			for _, name := range pkg.Scope().Names() {
				tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
				if !ok || types.IsInterface(tn.Type()) {
					continue
				}
				if types.Implements(tn.Type(), it) || types.Implements(types.NewPointer(tn.Type()), it) {
					return true
				}
			}
		}
		return false
	}

	flagged := map[string]token.Position{}
	flag := func(name string, obj types.Object) {
		if _, isType := obj.(*types.TypeName); isType && !used[obj] || !isType && !usedOutside[obj] {
			flagged[name] = fset.Position(obj.Pos())
		}
	}
	for _, ip := range paths {
		if !strings.HasPrefix(ip, module+"/internal/") {
			continue
		}
		pkg := mod.pkgs[ip]
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			qual := pkg.Name() + "." + name
			flag(qual, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				outside := implementedOutside(it, pkg)
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); m.Exported() && !outside {
						flag(qual+"."+m.Name(), m)
					}
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !viaInterface(named, m) {
					flag(qual+"."+m.Name(), m)
				}
			}
		}
	}

	names := make([]string, 0, len(flagged))
	for name := range flagged {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := exportAllowlist[name]; !ok {
			t.Errorf("%s: %s is exported but only tests use it; delete it, unexport it, or give it a production caller", flagged[name], name)
		}
	}
	for name := range exportAllowlist {
		if _, ok := flagged[name]; !ok {
			t.Errorf("%s is in exportAllowlist but has a production caller or is gone; remove the entry", name)
		}
	}
	t.Logf("%d exports without a production caller (allowlist: %d)", len(names), len(exportAllowlist))
}

// moduleUses is the module type-checked from its non-test files: every
// package, and the objects those files use.
type moduleUses struct {
	fset  *token.FileSet
	paths []string // import paths, sorted
	pkgs  map[string]*types.Package
	// used holds every object some non-test file uses, usedOutside those a
	// file of another package uses.
	used, usedOutside map[types.Object]bool
	// viaInterface reports whether a method of recv implements a method of an
	// interface declared in the module, or exported by a standard package the
	// module imports: a call through the interface names only its method.
	viaInterface func(recv types.Type, m *types.Func) bool
}

// module is the module path.
const module = "dynasym"

var (
	loadOnce sync.Once
	loaded   *moduleUses
	loadErr  error
)

// loadModule type-checks the module once for every ratchet that reads it.
func loadModule(t *testing.T) *moduleUses {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = typeCheckModule() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

func typeCheckModule() (*moduleUses, error) {
	const root = "../.."
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → non-test files
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir // .git, .bench_build
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := path.Join(module, filepath.ToSlash(rel))
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	im := &sourceImporter{fset: fset, files: files, std: importer.Default(),
		pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
	paths := make([]string, 0, len(files))
	for ip := range files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := im.Import(ip); err != nil {
			return nil, err
		}
	}

	used, usedOutside := map[types.Object]bool{}, map[types.Object]bool{}
	for ip, info := range im.infos {
		for _, obj := range info.Uses {
			obj = origin(obj)
			used[obj] = true
			if obj.Pkg() != im.pkgs[ip] {
				usedOutside[obj] = true
			}
		}
	}
	// The interfaces a method can be reached through.
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	for _, ip := range paths {
		pkg := im.pkgs[ip]
		for _, p := range append([]*types.Package{pkg}, pkg.Imports()...) {
			if seen[p] {
				continue
			}
			seen[p] = true
			own := strings.HasPrefix(p.Path(), module+"/")
			for _, name := range p.Scope().Names() {
				tn, ok := p.Scope().Lookup(name).(*types.TypeName)
				if !ok || !(own || tn.Exported()) {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	viaInterface := func(recv types.Type, m *types.Func) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == m.Name() &&
					(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}
	return &moduleUses{fset: fset, paths: paths, pkgs: im.pkgs, used: used,
		usedOutside: usedOutside, viaInterface: viaInterface}, nil
}

// TestEveryUnexportedFuncHasACaller is the export ratchet's other half: it
// flags each unexported package-level function, and each unexported method,
// under internal/ and cmd/ that no non-test file uses. Such a function is
// dead: nothing but a test can reach it. A method that implements a method
// of an interface counts as called, as in
// TestEveryExportHasAProductionCaller, and a command's main is called by the
// runtime. There is no allowlist: a flagged name fails the test with its
// file:line.
func TestEveryUnexportedFuncHasACaller(t *testing.T) {
	mod := loadModule(t)
	n := 0
	check := func(f *types.Func) {
		n++
		if !mod.used[f] {
			t.Errorf("%s: %s is unexported and no non-test file calls it; delete it", mod.fset.Position(f.Pos()), f.FullName())
		}
	}
	for _, ip := range mod.paths {
		if !strings.HasPrefix(ip, module+"/internal/") && !strings.HasPrefix(ip, module+"/cmd/") {
			continue
		}
		pkg := mod.pkgs[ip]
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				if !obj.Exported() && !(pkg.Name() == "main" && name == "main") {
					check(obj)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() || types.IsInterface(named) {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); !m.Exported() && !mod.viaInterface(named, m) {
						check(m)
					}
				}
			}
		}
	}
	t.Logf("%d unexported functions and methods checked", n)
}

// sourceImporter type-checks the module's packages from source, recording
// each one's uses, and takes the standard library from importer.Default.
type sourceImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	std   types.Importer
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

func (im *sourceImporter) Import(ip string) (*types.Package, error) {
	if pkg, ok := im.pkgs[ip]; ok {
		return pkg, nil
	}
	files, ok := im.files[ip]
	if !ok {
		return im.std.Import(ip)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: im}).Check(ip, im.fset, files, info)
	if err != nil {
		return nil, err
	}
	im.pkgs[ip], im.infos[ip] = pkg, info
	return pkg, nil
}

// origin maps a method or field of an instantiated generic type back to the
// object its declaration made.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
