package repro

// The surface check: every exported function, method, type, constant
// and package-level variable in the module, and every exported method
// of an interface declared in it, must be reached by some non-test file
// outside bench/, so dead API is found by `go test ./...` rather than
// by reading. Test files neither count as references nor are checked.
// bench/ is not checked either, and a reference from it is no reach:
// it is a frozen harness that must not pin API the simulator no longer
// needs, so what only bench/ reaches stays as an allowlist row. Struct
// fields are out of scope: the stats registry and encoding/json read
// them by reflection.

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

// surfaceBenchOnly is the reason of every allowlist row whose
// identifier only bench/ reaches and goes once bench/ no longer does.
const surfaceBenchOnly = "only bench/ reaches it; ROADMAP item 4 moves bench/ off it, and then it goes"

// surfaceAllowlist names the exported identifiers that stay without a
// reference from a non-test file outside bench/, keyed as surfaceKey
// prints them. Every row needs a reason; a row whose identifier gains a
// reference or disappears fails the test as stale, and so does a
// surfaceBenchOnly row bench/ no longer reaches.
var surfaceAllowlist = map[string]string{
	"repro/internal/core.SimulateStream": "the reference loop TestSingleTenantMatchesSimulate holds a group of one to, and the core tests' simulate helper runs",
	"repro/internal/dram/knobtest.Pick":  "knobtest is test support that only _test.go files import",
	"repro/internal/engine.Step":         "the zero Mode, which every Runner and tenant.Options that names no engine runs; tests and bench/ name it",
	"repro/internal/stats.errFile.Write": "io.Writer for runtime/pprof, which calls it: the profilers are handed an errFile so that their dropped write errors are kept",

	"repro/internal/core.NewSim":             surfaceBenchOnly,
	"repro/internal/core.Sim.SetEngine":      surfaceBenchOnly,
	"repro/internal/core.MemSystem.Register": surfaceBenchOnly,
	"repro/internal/core.Stats.Register":     surfaceBenchOnly,
	"repro/internal/trace.Trace":             surfaceBenchOnly,
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

// inBench reports whether a package path lies under bench/.
func (m *module) inBench(path string) bool {
	return path == m.path+"/bench" || strings.HasPrefix(path, m.path+"/bench/")
}

// reach is how far the module's non-test files reach an object.
type reach int

const (
	notReached   reach = iota
	benchReached       // only bench/ refers to it
	reached            // a file outside bench/ refers to it
)

// references maps every object a non-test file refers to, other than
// through the receiver of a method declared on it, to its reach.
func references(m *module) map[types.Object]reach {
	refs := map[types.Object]reach{}
	for path, files := range m.files {
		r := reached
		if m.inBench(path) {
			r = benchReached
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				}
			case *ast.Ident:
				obj := m.info.Uses[n]
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				if obj != nil && refs[obj] < r {
					refs[obj] = r
				}
			}
			return true
		}
		for _, f := range files {
			ast.Inspect(f, visit)
		}
	}
	return refs
}

// surfaceKey names an object as package path, then the receiver or
// interface type name for a method, then the object's name.
func surfaceKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if t := recvType(fn); t != nil {
			return fmt.Sprintf("%s.%s.%s", fn.Pkg().Path(), t.Obj().Name(), fn.Name())
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvType is the type a method is declared on, an interface's
// included; nil for a function.
func recvType(fn *types.Func) *types.Named {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// methodReach is how far a method is reached where no reference shows:
// fmt calls String and Error, and a call through one of the module's
// interfaces, named or anonymous, reaches each method that makes a type
// satisfy it — as far as the interface method itself is reached.
func methodReach(fn *types.Func, ifaces []*types.Interface, refs map[types.Object]reach) reach {
	t := recvType(fn)
	if t == nil || types.IsInterface(t) {
		return notReached
	}
	sig := fn.Signature()
	if (fn.Name() == "String" || fn.Name() == "Error") && sig.Params().Len() == 0 &&
		sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
		return reached
	}
	r := notReached
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			im := iface.Method(i)
			if im.Name() == fn.Name() && refs[im] > r && (types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)) {
				r = refs[im]
			}
		}
	}
	return r
}

// declaredSurface lists the identifiers that declare the exported
// functions, methods, types, constants and package-level variables of
// every package outside bench/, and the exported methods of every
// interface type declared at package level.
func declaredSurface(m *module) []*ast.Ident {
	var out []*ast.Ident
	add := func(id *ast.Ident) {
		if id.IsExported() {
			out = append(out, id)
		}
	}
	for path, files := range m.files {
		if m.inBench(path) {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					add(d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name)
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, meth := range it.Methods.List {
									for _, id := range meth.Names {
										add(id)
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// unreachedSurface lists, as "key (file:line)", every exported
// identifier of m that no non-test file outside bench/ reaches, less
// the allowlisted ones — split into those nothing reaches and those
// only bench/ does — and the allowlist rows that are stale.
func unreachedSurface(m *module, allow map[string]string) (unreached, bench, stale []string) {
	refs := references(m)
	var ifaces []*types.Interface
	for _, tv := range m.info.Types {
		if i, ok := tv.Type.(*types.Interface); ok && tv.IsType() && i.NumMethods() > 0 {
			ifaces = append(ifaces, i)
		}
	}
	found := map[string]bool{}
	for _, id := range declaredSurface(m) {
		obj := m.info.Defs[id]
		r := refs[obj]
		if fn, ok := obj.(*types.Func); ok {
			r = max(r, methodReach(fn, ifaces, refs))
		}
		key := surfaceKey(obj)
		if reason, ok := allow[key]; ok {
			found[key] = true
			switch {
			case r == reached:
				stale = append(stale, key+": a non-test file outside bench/ reaches it")
			case r == notReached && reason == surfaceBenchOnly:
				stale = append(stale, key+": bench/ no longer reaches it")
			}
			continue
		}
		pos := m.fset.Position(id.Pos())
		entry := fmt.Sprintf("%s (%s:%d)", key, filepath.ToSlash(pos.Filename), pos.Line)
		switch r {
		case notReached:
			unreached = append(unreached, entry)
		case benchReached:
			bench = append(bench, entry)
		}
	}
	for key := range allow {
		if !found[key] {
			stale = append(stale, key+": no longer exists")
		}
	}
	sort.Strings(unreached)
	sort.Strings(bench)
	sort.Strings(stale)
	return unreached, bench, stale
}

// TestExportedSurfaceIsReached fails on an exported identifier that
// only tests, bench/, or nothing reach. Delete it, or unexport it if
// its package still uses it.
func TestExportedSurfaceIsReached(t *testing.T) {
	m, err := loadModule(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	unreached, bench, stale := unreachedSurface(m, surfaceAllowlist)
	for _, s := range unreached {
		t.Errorf("no non-test reference: %s", s)
	}
	for _, s := range bench {
		t.Errorf("only bench/ reaches (a surfaceBenchOnly row, or delete it): %s", s)
	}
	for _, s := range stale {
		t.Errorf("stale allowlist row %s", s)
	}
}
