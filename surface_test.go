package repro

// The surface check: every exported function and method in the module
// must be reached by some non-test file in the module, so dead API is
// found by `go test ./...` rather than by reading. Test files neither
// count as callers nor are checked.

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

// surfaceAllowlist names the exported functions that stay without a
// non-test caller, keyed as surfaceKey prints them. Every row needs a
// reason; a row whose identifier gains a caller or disappears fails the
// test as stale.
var surfaceAllowlist = map[string]string{
	"repro/internal/trace.Stream.All":   "the reference decoder FuzzStreamRoundTrip and the recorder tests hold Compact and Recorder to",
	"repro/internal/dram/knobtest.Pick": "knobtest is test support that only _test.go files import",
}

// module is the non-test half of every package under one module root,
// type-checked once each so that objects are shared across importers.
type module struct {
	root, path string
	fset       *token.FileSet
	std        types.Importer
	info       *types.Info
	pkgs       map[string]*types.Package
	files      map[string][]*ast.File
}

// Import type-checks a module package on first use and hands every
// other path to the standard library's source importer.
func (m *module) Import(path string) (*types.Package, error) {
	if path != m.path && !strings.HasPrefix(path, m.path+"/") {
		return m.std.Import(path)
	}
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(m.root, strings.TrimPrefix(strings.TrimPrefix(path, m.path), "/"))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.files[path] = pkg, files
	return pkg, nil
}

// loadModule type-checks every package directory under root, skipping
// testdata and hidden directories.
func loadModule(root, path string) (*module, error) {
	fset := token.NewFileSet()
	m := &module{
		root: root, path: path, fset: fset,
		std: importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		_, err = m.Import(strings.TrimSuffix(path+"/"+filepath.ToSlash(p), "/."))
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		return err
	})
	return m, err
}

// surfaceKey names a function as package path, then receiver type name
// for a method, then the function name.
func surfaceKey(fn *types.Func) string {
	if t := recvType(fn); t != nil {
		return fmt.Sprintf("%s.%s.%s", fn.Pkg().Path(), t.Obj().Name(), fn.Name())
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// recvType is the type a method is declared on; nil for a function.
func recvType(fn *types.Func) *types.Named {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// exempt reports whether fn is reached where no reference shows: fmt
// calls String and Error, and a call through an interface reaches a
// method that makes its type satisfy one of the module's interfaces.
func exempt(fn *types.Func, ifaces []*types.Interface) bool {
	t := recvType(fn)
	if t == nil {
		return false
	}
	sig := fn.Signature()
	if (fn.Name() == "String" || fn.Name() == "Error") && sig.Params().Len() == 0 &&
		sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
		return true
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() && (types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)) {
				return true
			}
		}
	}
	return false
}

// unreachedSurface lists, as "key (file:line)", every exported function
// and method of m that no non-test file references, less the exempt
// ones; and the allowlist rows that are stale.
func unreachedSurface(m *module, allow map[string]string) (unreached, stale []string) {
	used := map[*types.Func]bool{}
	for _, obj := range m.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	var ifaces []*types.Interface
	for _, tv := range m.info.Types {
		if i, ok := tv.Type.(*types.Interface); ok && tv.IsType() && i.NumMethods() > 0 {
			ifaces = append(ifaces, i)
		}
	}
	found := map[string]bool{}
	for _, files := range m.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := m.info.Defs[fd.Name].(*types.Func)
				key := surfaceKey(fn)
				if _, ok := allow[key]; ok {
					found[key] = true
					if used[fn] {
						stale = append(stale, key+": has a non-test caller")
					}
					continue
				}
				if used[fn] || exempt(fn, ifaces) {
					continue
				}
				pos := m.fset.Position(fd.Name.Pos())
				unreached = append(unreached, fmt.Sprintf("%s (%s:%d)", key, filepath.ToSlash(pos.Filename), pos.Line))
			}
		}
	}
	for key := range allow {
		if !found[key] {
			stale = append(stale, key+": no longer exists")
		}
	}
	sort.Strings(unreached)
	sort.Strings(stale)
	return unreached, stale
}

// TestExportedSurfaceIsReached fails on an exported function or method
// that only tests, or nothing, call. Delete it, or unexport it if its
// package still uses it.
func TestExportedSurfaceIsReached(t *testing.T) {
	m, err := loadModule(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	unreached, stale := unreachedSurface(m, surfaceAllowlist)
	for _, s := range unreached {
		t.Errorf("no non-test caller: %s", s)
	}
	for _, s := range stale {
		t.Errorf("stale allowlist row %s", s)
	}
}
