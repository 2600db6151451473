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
	"sync"
	"testing"
)

// The dead-code gate. One type-check of every non-test file of the module
// (root facade, cmd/, examples/, internal/) plus the perfbench module,
// which imports internal packages through a replace directive, feeds four
// checks on the internal/ packages:
//
//   - TestNoDeadInternalExports: exported names with no non-test caller;
//   - TestNoUnreadInternalFields: struct fields no non-test file reads;
//   - TestNoUnsetConfigFields: Options/Config/Settings fields no non-test
//     file sets;
//   - TestNoTestOnlyHelpers: unexported functions and methods with no
//     non-test caller.
//
// Each check has an allowlist below, keyed like the check reports its
// findings, and each entry says why the finding stays. An entry that
// matches nothing fails the check, so the lists only shrink.

// deadExportAllow names the exported internal/ identifiers that only tests
// call, keyed "pkg.Name", "pkg.Type.Method", or a bare package name for
// the whole package.
var deadExportAllow = map[string]string{
	"faultinject":            "test-support package: fault-injecting filesystems and kill fuses for the crash-safety suites",
	"optimize.CheckGradient": "finite-difference gradient check shared by the ifair and lfr gradient tests",
	"mat.Equalish":           "tolerance comparison shared by test files across packages",
	"ifair.Losses":           "Def. 9 scorer that re-scores a returned fit at its parameters",
}

// unreadFieldAllow names the struct fields, keyed "pkg.Type.Field", that
// no non-test file reads.
var unreadFieldAllow = map[string]string{}

// unsetConfigAllow names the config fields, keyed "pkg.Type.Field", that
// no non-test file sets.
var unsetConfigAllow = map[string]string{}

// testOnlyHelperAllow names the unexported functions and methods, keyed
// "pkg.name" or "pkg.Type.name", that only tests call.
var testOnlyHelperAllow = map[string]string{}

// TestNoDeadInternalExports fails when an exported identifier of an
// internal/ package has no caller outside _test.go files.
//
// Package-level functions, types, variables and constants are checked, and
// so are the methods declared on named types. Besides a direct reference,
// an identifier counts as used when:
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
	s := moduleScan(t)
	checkFindings(t, "exported but no non-test caller", s.deadExports(), deadExportAllow)
}

// TestNoUnreadInternalFields fails when a struct field declared in an
// internal/ package is never read outside _test.go files. A
// composite-literal key or the left side of "=" writes a field without
// reading it. Every field of a struct type that is compared with ==/!= or
// used as a map key counts as read, and so does a field with a struct tag,
// which reflection reads.
func TestNoUnreadInternalFields(t *testing.T) {
	s := moduleScan(t)
	checkFindings(t, "field never read outside tests", s.unreadFields(), unreadFieldAllow)
}

// TestNoUnsetConfigFields fails when an exported field of an exported
// internal/ struct named *Options, *Config or *Settings is never set
// outside _test.go files. A write inside a method of that same struct
// does not count: it only fills in a default.
func TestNoUnsetConfigFields(t *testing.T) {
	s := moduleScan(t)
	checkFindings(t, "config field never set outside tests", s.unsetConfigFields(), unsetConfigAllow)
}

// TestNoTestOnlyHelpers fails when an unexported package-level function or
// method of an internal/ package has no caller outside _test.go files. A
// method that may be called through an interface counts as called.
func TestNoTestOnlyHelpers(t *testing.T) {
	s := moduleScan(t)
	checkFindings(t, "unexported but no non-test caller", s.testOnlyHelpers(), testOnlyHelperAllow)
}

// TestDeadCodeScannerFixture runs the scanner over testdata/deadcode, a
// miniature module that holds one case of each finding kind next to the
// shapes that must not be reported: a struct compared with ==, a struct
// used as a map key, a tagged field, a write inside a default-filling
// method, an embedded field reached only through promotion and a method
// called only through an interface. Its _test.go file uses every finding,
// which must not hide them.
func TestDeadCodeScannerFixture(t *testing.T) {
	s, err := scanModule(filepath.Join("testdata", "deadcode"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  []finding
		want []string
	}{
		{"exports", s.deadExports(), []string{"internal/lib/lib.go:9 lib.DeadExport"}},
		{"fields", s.unreadFields(), []string{
			"internal/lib/lib.go:75 lib.Result.Unread",
			"internal/lib/lib.go:76 lib.Result.Stale",
		}},
		{"config", s.unsetConfigFields(), []string{"internal/lib/lib.go:59 lib.Options.Unset"}},
		{"helpers", s.testOnlyHelpers(), []string{"internal/lib/lib.go:19 lib.testOnly"}},
	} {
		var got []string
		for _, f := range c.got {
			got = append(got, f.String())
		}
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s: got findings\n\t%s\nwant\n\t%s", c.name, strings.Join(got, "\n\t"), strings.Join(c.want, "\n\t"))
		}
	}
}

// finding is one report of a check: where the object is declared and the
// key an allowlist names it by.
type finding struct {
	pos string // file:line relative to the scanned root
	key string
}

func (f finding) String() string { return f.pos + " " + f.key }

// checkFindings reports every finding the allowlist does not name, and
// every allowlist entry that names no finding. A bare package name in the
// allowlist covers every finding in that package.
func checkFindings(t *testing.T, msg string, found []finding, allow map[string]string) {
	t.Helper()
	matched := map[string]bool{}
	for _, f := range found {
		pkg, _, _ := strings.Cut(f.key, ".")
		switch {
		case allow[f.key] != "":
			matched[f.key] = true
		case allow[pkg] != "":
			matched[pkg] = true
		default:
			t.Errorf("%s: %s", msg, f)
		}
	}
	for key := range allow {
		if !matched[key] {
			t.Errorf("allowlist entry %q matches no finding; remove it", key)
		}
	}
}

var (
	moduleScanOnce sync.Once
	moduleScanned  *exportScan
	moduleScanErr  error
)

// moduleScan type-checks the module once per test binary and shares the
// result between the checks.
func moduleScan(t *testing.T) *exportScan {
	t.Helper()
	moduleScanOnce.Do(func() {
		root, err := os.Getwd()
		if err != nil {
			moduleScanErr = err
			return
		}
		moduleScanned, moduleScanErr = scanModule(root, "repro")
	})
	if moduleScanErr != nil {
		t.Fatal(moduleScanErr)
	}
	return moduleScanned
}

type exportScan struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.Importer
	pkgs   map[string]*scannedPkg
	used   map[types.Object]bool

	fields  []fieldDecl              // struct fields declared in internal/
	read    map[*types.Var]bool      // fields read by some non-test file
	written map[*types.Var][]writeAt // where non-test files write a field
}

type scannedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// fieldDecl is one struct field declared in an internal/ package. owner is
// the declaring named type, or "struct" for an anonymous struct type.
type fieldDecl struct {
	obj    *types.Var
	pkg    *types.Package
	owner  string
	named  *types.TypeName
	tagged bool
}

// writeAt is one write of a field; recv is the named type of the method
// the write sits in, or nil outside a method.
type writeAt struct {
	recv *types.TypeName
}

// scanModule type-checks every package directory under root, with import
// paths rooted at module, and indexes the references the checks need.
func scanModule(root, module string) (*exportScan, error) {
	s := &exportScan{
		fset:    token.NewFileSet(),
		root:    root,
		module:  module,
		pkgs:    map[string]*scannedPkg{},
		used:    map[types.Object]bool{},
		read:    map[*types.Var]bool{},
		written: map[*types.Var][]writeAt{},
	}
	s.std = importer.ForCompiler(s.fset, "gc", nil)
	dirs, err := goPackageDirs(root)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		path := module
		if rel, _ := filepath.Rel(root, dir); rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := s.Import(path); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", path, err)
		}
	}
	s.markReferences()
	s.markFacadeAliasMethods()
	s.markConstBlocks()
	s.indexFields()
	return s, nil
}

// Import type-checks the module's own packages from source, once each, and
// takes everything else from the compiler's export data.
func (s *exportScan) Import(path string) (*types.Package, error) {
	if path != s.module && !strings.HasPrefix(path, s.module+"/") {
		return s.std.Import(path)
	}
	if p, ok := s.pkgs[path]; ok {
		return p.pkg, nil
	}
	dir := filepath.Join(s.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, s.module), "/")))
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
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
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

// internalPkgs returns the scanned internal/ packages.
func (s *exportScan) internalPkgs() []*scannedPkg {
	var out []*scannedPkg
	for path, p := range s.pkgs {
		if strings.HasPrefix(path, s.module+"/internal/") {
			out = append(out, p)
		}
	}
	return out
}

// finding builds the report for obj under key.
func (s *exportScan) finding(obj types.Object, key string) finding {
	pos := s.fset.Position(obj.Pos())
	file, _ := filepath.Rel(s.root, pos.Filename)
	return finding{pos: fmt.Sprintf("%s:%d", filepath.ToSlash(file), pos.Line), key: key}
}

func sortFindings(fs []finding) []finding {
	sort.Slice(fs, func(i, j int) bool { return fs[i].String() < fs[j].String() })
	return fs
}

// deadExports lists the exported internal/ identifiers nothing outside
// tests uses.
func (s *exportScan) deadExports() []finding {
	ifaces := s.interfacesByMethod()
	var out []finding
	for _, p := range s.internalPkgs() {
		for _, c := range exportedObjects(p.pkg) {
			if !s.used[c.obj] && !implicitlyCalled(c.obj, ifaces) {
				out = append(out, s.finding(c.obj, p.pkg.Name()+"."+c.name))
			}
		}
	}
	return sortFindings(out)
}

// testOnlyHelpers lists the unexported internal/ functions and methods
// nothing outside tests calls.
func (s *exportScan) testOnlyHelpers() []finding {
	ifaces := s.interfacesByMethod()
	var out []finding
	for _, p := range s.internalPkgs() {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || ast.IsExported(fd.Name.Name) || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				obj := p.info.Defs[fd.Name]
				if s.used[obj] || implicitlyCalled(obj, ifaces) {
					continue
				}
				key := p.pkg.Name() + "." + fd.Name.Name
				if fd.Recv != nil {
					key = p.pkg.Name() + "." + receiverType(obj).Obj().Name() + "." + fd.Name.Name
				}
				out = append(out, s.finding(obj, key))
			}
		}
	}
	return sortFindings(out)
}

// unreadFields lists the internal/ struct fields nothing outside tests
// reads.
func (s *exportScan) unreadFields() []finding {
	var out []finding
	for _, f := range s.fields {
		if !f.tagged && !s.read[f.obj] && f.obj.Name() != "_" {
			out = append(out, s.finding(f.obj, f.key()))
		}
	}
	return sortFindings(out)
}

// unsetConfigFields lists the exported fields of exported internal/
// Options/Config/Settings structs that nothing outside tests writes,
// writes inside the struct's own methods aside.
func (s *exportScan) unsetConfigFields() []finding {
	var out []finding
	for _, f := range s.fields {
		if f.named == nil || !f.named.Exported() || !f.obj.Exported() || !isConfigName(f.named.Name()) {
			continue
		}
		set := false
		for _, w := range s.written[f.obj] {
			set = set || w.recv != f.named
		}
		if !set {
			out = append(out, s.finding(f.obj, f.key()))
		}
	}
	return sortFindings(out)
}

func isConfigName(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Settings")
}

func (f fieldDecl) key() string {
	return f.pkg.Name() + "." + f.owner + "." + f.obj.Name()
}

// indexFields lists the struct fields declared in internal/ and records
// which fields the non-test files read and where they write them.
func (s *exportScan) indexFields() {
	for _, p := range s.internalPkgs() {
		for _, f := range p.files {
			s.collectFields(p, f)
		}
	}
	for _, p := range s.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				var recv *types.TypeName
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					recv = receiverType(p.info.Defs[fd.Name]).Obj()
				}
				s.indexAccesses(p.info, decl, recv)
			}
		}
	}
}

// collectFields records every field of every struct type expression in f.
func (s *exportScan) collectFields(p *scannedPkg, f *ast.File) {
	owners := map[*ast.StructType]*types.TypeName{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok {
				owners[st], _ = p.info.Defs[n.Name].(*types.TypeName)
			}
		case *ast.StructType:
			named := owners[n]
			owner := "struct"
			if named != nil {
				owner = named.Name()
			}
			for _, fl := range n.Fields.List {
				for _, obj := range fieldObjects(p.info, fl) {
					s.fields = append(s.fields, fieldDecl{obj: obj, pkg: p.pkg, owner: owner, named: named, tagged: fl.Tag != nil})
				}
			}
		}
		return true
	})
}

// fieldObjects returns the field variables one field-list entry declares.
func fieldObjects(info *types.Info, fl *ast.Field) []*types.Var {
	ids := fl.Names
	if len(ids) == 0 { // embedded: T, *T, pkg.T, T[P]
		e := fl.Type
		for {
			switch x := e.(type) {
			case *ast.StarExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				e = x.Sel
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.IndexListExpr:
				e = x.X
				continue
			}
			break
		}
		if id, ok := e.(*ast.Ident); ok {
			ids = []*ast.Ident{id}
		}
	}
	var out []*types.Var
	for _, id := range ids {
		if v, ok := info.Defs[id].(*types.Var); ok {
			out = append(out, v)
		}
	}
	return out
}

// indexAccesses classifies every field reference in node as a read or a
// write. Composite-literal keys, positional composite literals and the
// left side of "=" write; "op=", "++", "--" and taking the address both
// read and write; everything else reads. Promotion through an embedded
// field reads the embedded field, and a struct compared with ==/!= or
// used as a map key has all its fields read.
func (s *exportScan) indexAccesses(info *types.Info, node ast.Node, recv *types.TypeName) {
	writeOnly := map[*ast.Ident]bool{}
	write := func(e ast.Expr, alsoRead bool) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
			s.written[v.Origin()] = append(s.written[v.Origin()], writeAt{recv})
			writeOnly[sel.Sel] = !alsoRead
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok { // positional: element i sets field i
					s.written[st.Field(i).Origin()] = append(s.written[st.Field(i).Origin()], writeAt{recv})
					continue
				}
				if id, ok := kv.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
						s.written[v.Origin()] = append(s.written[v.Origin()], writeAt{recv})
						writeOnly[id] = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(lhs, n.Tok != token.ASSIGN && n.Tok != token.DEFINE)
			}
		case *ast.IncDecStmt:
			write(n.X, true)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X, true)
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				s.readAllFields(info.Types[n.X].Type, map[types.Type]bool{})
			}
		case *ast.MapType:
			s.readAllFields(info.Types[n.Key].Type, map[types.Type]bool{})
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil {
				s.readEmbeddedPath(sel)
			}
		}
		return true
	})
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !writeOnly[id] {
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				s.read[v.Origin()] = true
			}
		}
		return true
	})
}

// readEmbeddedPath marks the embedded fields a promoted selector passes
// through as read.
func (s *exportScan) readEmbeddedPath(sel *types.Selection) {
	idx := sel.Index()
	t := sel.Recv()
	for _, i := range idx[:len(idx)-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		f := st.Field(i)
		s.read[f.Origin()] = true
		t = f.Type()
	}
}

// readAllFields marks every field of struct type t, and of the structs and
// arrays it holds by value, as read: == and map hashing compare them all.
func (s *exportScan) readAllFields(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			s.read[u.Field(i).Origin()] = true
			s.readAllFields(u.Field(i).Type(), seen)
		}
	case *types.Array:
		s.readAllFields(u.Elem(), seen)
	}
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
	root, ok := s.pkgs[s.module]
	if !ok {
		return
	}
	scope := root.pkg.Scope()
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
