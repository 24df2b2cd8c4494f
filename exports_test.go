package hypersolve_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNoTestOnlyExports: every exported name that a non-test file under
// internal/ declares is referenced from somewhere other than its declaration
// and its own package's tests. References from other packages and their
// tests, from cmd/, examples/ and the root package, and from the benchmark
// module's benchmark/*.go all count. A name that only its own package's tests
// reach belongs in that package's export_test.go, or nowhere.
//
// The names checked are package-level functions, types, variables and
// constants, and the methods of named types. Struct fields are not checked
// here: encoding/json and keyless composite literals reach fields without a
// reference the type checker records, so TestEveryFieldIsSet checks that
// each field is written instead, and TestSettableSurface pins the ones an
// operator or caller sets. The methods an interface type declares are not
// checked either: they are reached through its implementations.
//
// Interface rule: a method is not flagged when its receiver type, or a
// pointer to it, implements an interface that has a method of the same name.
// The interfaces counted are error and every named interface type declared by
// a module package or by a standard-library package the module imports, since
// interface dispatch (fmt.Stringer, http.Handler, io.Writer, ...) calls such
// a method without naming it.
func TestNoTestOnlyExports(t *testing.T) {
	l := loadedModule(t)
	// allow lists exported names kept without such a reference, one reason
	// each, keyed as the failure message prints them.
	allow := map[string]string{}

	var ifaces []*types.Interface
	addIfaces := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() != nil {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	addIfaces(types.Universe)
	for _, p := range l.std {
		addIfaces(p.Scope())
	}
	for _, p := range l.pkgs {
		addIfaces(p.types.Scope())
	}
	satisfies := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
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

	var testOnly []string
	for _, p := range l.pkgs {
		if !strings.HasPrefix(p.path, "hypersolve/internal/") {
			continue
		}
		for id, obj := range p.info.Defs {
			if obj == nil || !obj.Exported() || l.reached[obj] {
				continue
			}
			name := l.declName(obj)
			if name == "" {
				continue
			}
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && satisfies(fn) {
				continue
			}
			if _, ok := allow[name]; ok {
				delete(allow, name)
				continue
			}
			testOnly = append(testOnly, fmt.Sprintf("%s (%s)", name, l.fset.Position(id.Pos())))
		}
	}
	sort.Strings(testOnly)
	for _, s := range testOnly {
		t.Errorf("%s is exported but only its own package's tests reference it: move it to export_test.go or delete it", s)
	}
	for name := range allow {
		t.Errorf("allowlisted %s has a caller now, or is gone: drop it from the list", name)
	}
}

// module is the type-checked module, loaded once per test binary and shared
// by every gate that reads it.
var module = sync.OnceValues(loadModule)

// loadedModule returns the type-checked module, skipping the calling gate
// under -short.
func loadedModule(t *testing.T) *moduleLoader {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module and the benchmark module")
	}
	l, err := module()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("type-checked %d packages, %d times with their test variants, in %v", len(l.pkgs), l.checked, l.elapsed.Round(time.Millisecond))
	return l
}

// moduleLoader type-checks every package of the module and of the nested
// benchmark module from source, once each, and then each package's tests the
// way the go command builds them: its files with its in-package tests, and
// its external test package, for which the packages that import the package
// under test are checked again against that variant. Standard-library
// imports come from the compiler's export data.
type moduleLoader struct {
	fset *token.FileSet
	dirs map[string]*dirFiles // by import path
	pkgs map[string]*modulePkg
	std  map[string]*types.Package
	gc   types.Importer
	// reached holds every module object referenced from a file that is
	// not a test of the object's own package.
	reached map[types.Object]bool
	checked int
	elapsed time.Duration
	errs    []error
}

// dirFiles are the parsed files of one directory.
type dirFiles struct {
	files, inTests, xTests []*ast.File
	imports                []string // module packages the files import
}

// modulePkg is a package as its importers see it.
type modulePkg struct {
	path  string
	types *types.Package
	info  *types.Info
}

func loadModule() (*moduleLoader, error) {
	start := time.Now()
	l := &moduleLoader{
		fset:    token.NewFileSet(),
		dirs:    map[string]*dirFiles{},
		pkgs:    map[string]*modulePkg{},
		std:     map[string]*types.Package{},
		reached: map[types.Object]bool{},
	}
	stdPaths := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(l.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("hypersolve", filepath.ToSlash(filepath.Dir(p)))
		df := l.dirs[ip]
		if df == nil {
			df = &dirFiles{}
			l.dirs[ip] = df
		}
		test := strings.HasSuffix(p, "_test.go")
		for _, imp := range f.Imports {
			switch dep := strings.Trim(imp.Path.Value, `"`); {
			case !isModulePath(dep):
				stdPaths[dep] = true
			case !test:
				df.imports = append(df.imports, dep)
			}
		}
		switch {
		case !test:
			df.files = append(df.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			df.xTests = append(df.xTests, f)
		default:
			df.inTests = append(df.inTests, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if l.gc, err = stdImporter(l.fset, stdPaths); err != nil {
		return nil, err
	}

	paths := make([]string, 0, len(l.dirs))
	for ip := range l.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		df := l.dirs[ip]
		var variant *types.Package
		if len(df.files) > 0 {
			variant = l.load(ip).types
		}
		// An in-package test cannot import a package that imports its own,
		// so the variant's imports are the packages everyone sees.
		if len(df.inTests) > 0 {
			variant, _ = l.check(ip, append(slices.Clone(df.files), df.inTests...), ip, l.importCanonical)
		}
		if len(df.xTests) > 0 {
			rebuilt := map[string]*types.Package{ip: variant}
			var imp importerFunc
			imp = func(dep string) (*types.Package, error) {
				if p := rebuilt[dep]; p != nil {
					return p, nil
				}
				if !isModulePath(dep) || !l.dependsOn(dep, ip) {
					return l.importCanonical(dep)
				}
				p, _ := l.check(dep, l.dirs[dep].files, dep, imp)
				rebuilt[dep] = p
				return p, nil
			}
			l.check(ip+"_test", df.xTests, ip, imp)
		}
	}
	l.elapsed = time.Since(start)
	return l, errors.Join(l.errs...)
}

func isModulePath(ip string) bool { return ip == "hypersolve" || strings.HasPrefix(ip, "hypersolve/") }

// dependsOn reports whether package ip imports target, directly or not.
func (l *moduleLoader) dependsOn(ip, target string) bool {
	for _, dep := range l.dirs[ip].imports {
		if dep == target || l.dependsOn(dep, target) {
			return true
		}
	}
	return false
}

// importCanonical resolves an import path to the package every importer
// shares, type-checking a module package the first time it is asked for.
func (l *moduleLoader) importCanonical(ip string) (*types.Package, error) {
	if !isModulePath(ip) {
		if p := l.std[ip]; p != nil {
			return p, nil
		}
		p, err := l.gc.Import(ip)
		l.std[ip] = p
		return p, err
	}
	return l.load(ip).types, nil
}

// load returns the package at import path ip as its importers see it.
func (l *moduleLoader) load(ip string) *modulePkg {
	if p := l.pkgs[ip]; p != nil {
		return p
	}
	p := &modulePkg{path: ip}
	if df := l.dirs[ip]; df == nil || len(df.files) == 0 {
		l.errs = append(l.errs, fmt.Errorf("import %q: no such package in the module", ip))
		p.types, p.info = types.NewPackage(ip, path.Base(ip)), &types.Info{}
	} else {
		p.types, p.info = l.check(ip, df.files, ip, l.importCanonical)
	}
	l.pkgs[ip] = p
	return p
}

// check type-checks files as package path and records the module objects
// they reference. Files of the directory at import path owner that end in
// _test.go are tests of owner's package; their references to its objects
// are not recorded.
func (l *moduleLoader) check(path string, files []*ast.File, owner string, imp importerFunc) (*types.Package, *types.Info) {
	l.checked++
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { l.errs = append(l.errs, fmt.Errorf("type-checking %s: %v", path, err)) },
	}
	pkg, _ := conf.Check(path, l.fset, files, info)
	for id, obj := range info.Uses {
		obj = origin(obj)
		if obj.Pkg() == nil || !isModulePath(obj.Pkg().Path()) {
			continue
		}
		if obj.Pkg().Path() == owner && strings.HasSuffix(l.fset.Position(id.Pos()).Filename, "_test.go") {
			continue
		}
		l.reached[obj] = true
	}
	return pkg, info
}

// declName names an exported package-level object or method of a named type
// as "internal/pkg.Name" or "internal/pkg.Type.Method", and returns "" for
// anything else the gate does not check.
func (l *moduleLoader) declName(obj types.Object) string {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), "hypersolve/")
	if obj.Parent() == obj.Pkg().Scope() {
		return pkg + "." + obj.Name()
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || types.IsInterface(named) {
		return ""
	}
	return pkg + "." + named.Obj().Name() + "." + fn.Name()
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

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdImporter reads standard-library packages from the compiler's export
// data, which one `go list -export` call locates (building it into the build
// cache when it is not there yet).
func stdImporter(fset *token.FileSet, paths map[string]bool) (types.Importer, error) {
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for p := range paths {
		args = append(args, p)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if ip, file, ok := strings.Cut(line, "\t"); ok {
			export[ip] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		file := export[ip]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", ip)
		}
		return os.Open(file)
	}), nil
}
