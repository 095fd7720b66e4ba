package nocsprint_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryExportReached fails when an exported func, method, type or const
// under internal/ has no use in a non-test file of internal/, cmd/,
// examples/ or bench/nocbench: code that only tests reach belongs in the
// tests. It fails too on an unexported func or method outside bench/ that
// nothing reached calls, which the compiler and go vet let through. A use
// counts only when the declaration it sits in is reached, so a dead
// constructor does not keep its type alive; a main package's main, init
// funcs and package-level variables are reached. Receiver lists and
// `var _ I = T{}` assertions are not uses. A method that implements an
// interface declared in the module or the standard library it imports
// (fmt.Stringer, json.Marshaler, ...) counts as reached once its type is.
// Struct fields are out of scope.
func TestEveryExportReached(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports")
	}
	s := &sweep{fset: token.NewFileSet(), dirs: map[string]string{}, pkgs: map[string]*sweepPkg{}}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	for _, root := range []string{"internal", "cmd", "examples", filepath.Join("bench", "nocbench")} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if bp, err := build.ImportDir(dir, 0); err == nil && len(bp.GoFiles) > 0 {
				s.dirs["nocsprint/"+filepath.ToSlash(dir)] = dir
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for path := range s.dirs {
		if _, err := s.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	exported, unexported := s.unreached(t)
	if len(exported) > 0 {
		t.Errorf("%d exported names under internal/ are reached only from tests; "+
			"use them, move them into a _test.go file, or delete them:\n\t%s",
			len(exported), strings.Join(exported, "\n\t"))
	}
	if len(unexported) > 0 {
		t.Errorf("%d unexported funcs or methods are called only from tests or not at all; "+
			"move them into a _test.go file or delete them:\n\t%s",
			len(unexported), strings.Join(unexported, "\n\t"))
	}
}

// testOnlyByDesign lists the exported names tests may be the only users of,
// each with the reason it stays in the package. The sweep treats them as
// reached, and fails if one no longer exists.
var testOnlyByDesign = map[string]string{
	"nocsprint/internal/traffic.Set.PickNode": "the root Step benchmarks' traffic tick draws " +
		"destinations with it, and moving it would change the work they time",
	"nocsprint/internal/noc.ZeroLoadLatency": "the closed-form latency that analytic bounds " +
		"on simulated latency are to be built on",
}

// sweepPkg is one type-checked package, test files left out.
type sweepPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// sweep type-checks the module's packages from source, resolving module
// import paths through dirs and the rest through the standard library.
type sweep struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path -> directory
	pkgs map[string]*sweepPkg
}

// Import implements types.Importer.
func (s *sweep) Import(path string) (*types.Package, error) {
	dir, ok := s.dirs[path]
	if !ok {
		return s.std.Import(path)
	}
	if p := s.pkgs[path]; p != nil {
		return p.pkg, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &sweepPkg{info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: s}
	if p.pkg, err = conf.Check(path, s.fset, p.files, p.info); err != nil {
		return nil, err
	}
	s.pkgs[path] = p
	return p.pkg, nil
}

// unreached returns the candidates no live declaration uses, as
// "path.Name (file:line)", sorted: the exported names, then the unexported
// funcs and methods.
func (s *sweep) unreached(t *testing.T) (exported, unexported []string) {
	candidate := map[types.Object]bool{}
	uses := map[types.Object][]types.Object{} // owner -> objects it uses; nil owner is live
	for path, p := range s.pkgs {
		internal := strings.HasPrefix(path, "nocsprint/internal/")
		ours := !strings.HasPrefix(path, "nocsprint/bench/")
		owned := func(obj types.Object) types.Object {
			_, fn := obj.(*types.Func)
			entry := obj.Name() == "init" || obj.Name() == "main" && obj.Pkg().Name() == "main"
			if internal && obj.Exported() || ours && fn && !obj.Exported() && !entry {
				candidate[obj] = true
				return obj
			}
			return nil
		}
		record := func(owner types.Object, nodes ...ast.Node) {
			for _, n := range nodes {
				ast.Inspect(n, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := p.info.Uses[id]; obj != nil && obj != owner {
							if fn, ok := obj.(*types.Func); ok {
								obj = fn.Origin()
							}
							uses[owner] = append(uses[owner], obj)
						}
					}
					return true
				})
			}
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					// Body and signature; the receiver list is left out.
					record(owned(p.info.Defs[d.Name]), d.Type, d.Body)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							record(owned(p.info.Defs[sp.Name]), sp)
						case *ast.ValueSpec:
							switch {
							case d.Tok == token.CONST:
								for _, name := range sp.Names {
									record(owned(p.info.Defs[name]), sp)
								}
							case sp.Names[0].Name != "_":
								record(nil, sp)
							}
						}
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	var visit func(owner types.Object)
	visit = func(owner types.Object) {
		for _, obj := range uses[owner] {
			if candidate[obj] && !reached[obj] {
				reached[obj] = true
				visit(obj)
			}
		}
	}
	visit(nil)
	byName := map[string]types.Object{}
	for obj := range candidate {
		byName[qualified(obj)] = obj
	}
	for name := range testOnlyByDesign {
		obj, ok := byName[name]
		if !ok {
			t.Errorf("testOnlyByDesign names %s, which is not an exported name under internal/", name)
			continue
		}
		reached[obj] = true
		visit(obj)
	}
	ifaces := s.interfaces()
	for changed := true; changed; {
		changed = false
		for obj := range candidate {
			if !reached[obj] && implements(obj, ifaces, reached, candidate) {
				reached[obj] = true
				visit(obj)
				changed = true
			}
		}
	}

	for obj := range candidate {
		if reached[obj] {
			continue
		}
		pos := s.fset.Position(obj.Pos())
		name := fmt.Sprintf("%s (%s:%d)", qualified(obj), filepath.ToSlash(pos.Filename), pos.Line)
		if obj.Exported() {
			exported = append(exported, name)
		} else {
			unexported = append(unexported, name)
		}
	}
	sort.Strings(exported)
	sort.Strings(unexported)
	return exported, unexported
}

// interfaces returns every interface the module or the standard library it
// imports declares, indexed by method name.
func (s *sweep) interfaces() map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	add := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			out[iface.Method(i).Name()] = append(out[iface.Method(i).Name()], iface)
		}
	}
	add(types.Universe.Lookup("error"))
	seen := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		_, module := s.pkgs[pkg.Path()]
		for _, name := range pkg.Scope().Names() {
			if module || token.IsExported(name) {
				add(pkg.Scope().Lookup(name))
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range s.pkgs {
		walk(p.pkg)
	}
	return out
}

// implements reports whether obj is a method whose receiver type is reached
// (or not a candidate) and that satisfies an interface method of its name.
func implements(obj types.Object, ifaces map[string][]*types.Interface, reached, candidate map[types.Object]bool) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, ok := typ.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	if tn := named.Obj(); candidate[tn] && !reached[tn] {
		return false
	}
	for _, iface := range ifaces[fn.Name()] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// qualified returns obj's name as "path.Name", or "path.Type.Method" for a
// method.
func qualified(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			if named, ok := typ.(*types.Named); ok {
				name = named.Obj().Name() + "." + name
			}
		}
	}
	return obj.Pkg().Path() + "." + name
}
