package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportAllow names the exported internal/ identifiers that only tests
// call, keyed like the gate reports them ("pkg.Name", "pkg.Type.Method",
// or a bare package name for the whole package), each with why it stays.
var deadExportAllow = map[string]string{
	"faultinject":            "test-support package: fault-injecting filesystems and kill fuses for the crash-safety suites",
	"optimize.CheckGradient": "finite-difference gradient check shared by the ifair and lfr gradient tests",
	"mat.Equalish":           "tolerance comparison shared by test files across packages",
	"ifair.Losses":           "Def. 9 scorer that re-scores a returned fit at its parameters",
}

// TestNoDeadInternalExports fails when an exported identifier of an
// internal/ package has no caller outside _test.go files. It type-checks
// every non-test file of the module (root facade, cmd/, examples/,
// internal/) plus the perfbench module, which imports internal packages
// through a replace directive.
//
// Package-level functions, types, variables and constants are checked, and
// so are the methods declared on named types. Struct fields and interface
// methods are not. Besides a direct reference, an identifier counts as used
// when:
//   - it is a String or Error method, which fmt calls implicitly;
//   - it is a method whose type (or pointer type) implements an interface
//     that has a method of the same name, since the call may be dynamic;
//   - it is a constant in a const block where another constant is used;
//   - it is an exported method of a type the root facade aliases, since
//     the facade is the public API.
//
// A reference from inside a function's own body (recursion) does not count,
// nor does a method's reference to its own receiver type.
func TestNoDeadInternalExports(t *testing.T) {
	s := &exportScan{
		fset: token.NewFileSet(),
		pkgs: map[string]*scannedPkg{},
		used: map[types.Object]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "gc", nil)
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	s.root = root
	dirs, err := goPackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		path := "repro"
		if rel, _ := filepath.Rel(root, dir); rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := s.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	s.markReferences()
	s.markFacadeAliasMethods()
	s.markConstBlocks()
	ifaces := s.interfacesByMethod()

	var dead []string
	matched := map[string]bool{}
	for path, p := range s.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		for _, c := range exportedObjects(p.pkg) {
			if s.used[c.obj] || implicitlyCalled(c.obj, ifaces) {
				continue
			}
			key := p.pkg.Name() + "." + c.name
			if _, ok := deadExportAllow[key]; ok {
				matched[key] = true
				continue
			}
			if _, ok := deadExportAllow[p.pkg.Name()]; ok {
				matched[p.pkg.Name()] = true
				continue
			}
			pos := s.fset.Position(c.obj.Pos())
			file, _ := filepath.Rel(root, pos.Filename)
			dead = append(dead, fmt.Sprintf("%s:%d %s", filepath.ToSlash(file), pos.Line, key))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but no non-test caller: %s", d)
	}
	for key := range deadExportAllow {
		if !matched[key] {
			t.Errorf("allowlist entry %q matches no uncalled export; remove it", key)
		}
	}
}

type exportScan struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*scannedPkg
	used map[types.Object]bool
}

type scannedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// Import type-checks the module's own packages from source, once each, and
// takes everything else from the compiler's export data.
func (s *exportScan) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return s.std.Import(path)
	}
	if p, ok := s.pkgs[path]; ok {
		return p.pkg, nil
	}
	dir := filepath.Join(s.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/")))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = &scannedPkg{pkg: pkg, files: files, info: info}
	return pkg, nil
}

// goPackageDirs lists every directory under root holding a non-test .go
// file, skipping hidden directories and testdata.
func goPackageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(path)
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") && !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	return dirs, err
}

// markReferences records every object a non-test file refers to, except a
// function's references to itself and a method's references to its own
// receiver type.
func (s *exportScan) markReferences() {
	for _, p := range s.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				var self, recv types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
					if fd.Recv != nil {
						recv = receiverType(self).Obj()
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := p.info.Uses[id]; obj != nil && obj != self && obj != recv {
							s.used[origin(obj)] = true
						}
					}
					return true
				})
			}
		}
	}
}

// markFacadeAliasMethods marks every method of a type the root package
// re-exports by alias: the facade's users call them without an internal
// import.
func (s *exportScan) markFacadeAliasMethods() {
	scope := s.pkgs["repro"].pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		named, ok := types.Unalias(tn.Type()).(*types.Named)
		if !ok {
			continue
		}
		mset := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < mset.Len(); i++ {
			s.used[origin(mset.At(i).Obj())] = true
		}
	}
}

// markConstBlocks marks a whole const block used when any of its constants
// is: iota enums name their zero value implicitly.
func (s *exportScan) markConstBlocks() {
	for _, p := range s.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				var objs []types.Object
				blockUsed := false
				for _, spec := range gd.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if obj := p.info.Defs[id]; obj != nil {
							objs = append(objs, obj)
							blockUsed = blockUsed || s.used[obj]
						}
					}
				}
				if blockUsed {
					for _, obj := range objs {
						s.used[obj] = true
					}
				}
			}
		}
	}
}

// interfacesByMethod indexes, by method name, every interface type named
// in a package the scanned code reaches. The module declares no interface
// literal with methods outside its tests, so named ones are all it can
// call through.
func (s *exportScan) interfacesByMethod() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i).Name()
					byName[m] = append(byName[m], it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range s.pkgs {
		visit(p.pkg)
	}
	return byName
}

type exportedObject struct {
	name string
	obj  types.Object
}

// exportedObjects lists a package's exported package-level objects and
// the exported methods declared on its named non-interface types.
func exportedObjects(pkg *types.Package) []exportedObject {
	var out []exportedObject
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		out = append(out, exportedObject{name, obj})
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				out = append(out, exportedObject{name + "." + m.Name(), m})
			}
		}
	}
	return out
}

// implicitlyCalled reports whether obj is a method that may be called
// without a static reference: by fmt, or through an interface its
// receiver type implements.
func implicitlyCalled(obj types.Object, ifaces map[string][]*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	if fn.Name() == "String" || fn.Name() == "Error" {
		return true
	}
	ptr := types.NewPointer(receiverType(fn))
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// receiverType returns the named type method fn is declared on. The
// method set of its pointer holds every method of the type.
func receiverType(fn types.Object) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin()
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
