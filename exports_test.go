package xehe

// A gate against dead library code: every exported function or method
// declared under internal/, and every function declared there without
// a body (the Go declaration of an assembly kernel, exported or not),
// must be used somewhere other than its own declaration — go build and
// go vet accept a bodyless declaration whose TEXT block is gone as
// long as nothing calls it. Uses are resolved to objects with
// go/types, so a dead method that shares its name with a called one is
// still found. The scan covers every package of the repository with
// its tests — commands, examples and the benchmark module included —
// so a declaration only a test calls passes; whether such a
// declaration belongs in the library is a question for review, not for
// this test.
// A method no file calls directly passes when its type implements an
// interface whose method of that name some file calls, or one the
// standard library calls for it: error, fmt.Stringer, json.Marshaler.

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
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"xehe/internal/race"
)

// repo type-checks the repository's packages in one universe: each
// package once, with its in-package test files, so an object declared
// in one package is the same *types.Func wherever it is used. Go
// forbids a package's tests to import anything that imports the
// package, so adding them creates no cycle. The standard library
// comes from go/importer, reading the export data stdExports lists.
type repo struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	info  *types.Info
	files map[*ast.File]string // every checked file -> its package's path
}

// Import implements types.Importer: the repository's packages from
// source, the rest from the standard library.
func (r *repo) Import(path string) (*types.Package, error) {
	dir, ok := r.dirs[path]
	if !ok {
		return r.std.Import(path)
	}
	if p, ok := r.pkgs[path]; ok {
		if p == nil {
			return nil, errors.New("import cycle through " + path)
		}
		return p, nil
	}
	r.pkgs[path] = nil // in progress
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p, err := r.check(path, dir, append(bp.GoFiles, bp.TestGoFiles...))
	r.pkgs[path] = p
	return p, err
}

func (r *repo) check(path, dir string, names []string) (*types.Package, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(r.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		r.files[f] = path
	}
	conf := types.Config{Importer: r}
	return conf.Check(path, r.fset, files, r.info)
}

// loadRepo checks every package under the root (the benchmark module's
// path is xehe/benchmark, so one prefix serves both modules) and each
// external test package.
func loadRepo(t *testing.T) *repo {
	r := &repo{
		fset:  token.NewFileSet(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[*ast.File]string{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err == nil {
			r.dirs[strings.TrimSuffix("xehe/"+filepath.ToSlash(path), "/.")] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exports := stdExports(t, r.dirs)
	r.std = importer.ForCompiler(r.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data listed for %s", path)
		}
		return os.Open(file)
	})
	for path, dir := range r.dirs {
		if _, err := r.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		bp, _ := build.ImportDir(dir, 0)
		if len(bp.XTestGoFiles) == 0 {
			continue
		}
		if _, err := r.check(path+"_test", dir, bp.XTestGoFiles); err != nil {
			t.Fatalf("type-checking %s_test: %v", path, err)
		}
	}
	return r
}

// stdExports returns the export data file of every standard-library
// package the repository's packages and tests import, and of their
// dependencies, from one `go list -export -deps`: go/importer on its
// own runs go list once per package, which would take most of the
// test's time.
func stdExports(t *testing.T, dirs map[string]string) map[string]string {
	std := []string{"fmt", "encoding/json"} // the interfaces the test looks up
	seen := map[string]bool{}
	for _, dir := range dirs {
		bp, _ := build.ImportDir(dir, 0)
		for _, imports := range [][]string{bp.Imports, bp.TestImports, bp.XTestImports} {
			for _, path := range imports {
				if _, ours := dirs[path]; !ours && !seen[path] {
					seen[path] = true
					std = append(std, path)
				}
			}
		}
	}
	goTool := filepath.Join(build.Default.GOROOT, "bin", "go")
	out, err := exec.Command(goTool, append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}, std...)...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		exports[path] = file
	}
	return exports
}

func TestInternalExportsHaveCallers(t *testing.T) {
	if race.Enabled {
		t.Skip("checks source, not concurrency: the plain run covers it")
	}
	start := time.Now()
	r := loadRepo(t)

	// Every function and method some file uses, by object, and the
	// interfaces whose methods are called, by method name.
	used := map[*types.Func]bool{}
	called := map[string][]*types.Interface{}
	calls := func(it *types.Interface) {
		for i := range it.NumMethods() {
			called[it.Method(i).Name()] = append(called[it.Method(i).Name()], it)
		}
	}
	for _, obj := range r.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			used[fn] = true
			if recv := fn.Signature().Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					called[fn.Name()] = append(called[fn.Name()], it)
				}
			}
		}
	}
	calls(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, n := range [][2]string{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}} {
		p, err := r.std.Import(n[0])
		if err != nil {
			t.Fatal(err)
		}
		calls(p.Scope().Lookup(n[1]).Type().Underlying().(*types.Interface))
	}
	implements := func(fn *types.Func) bool {
		recv := fn.Signature().Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, it := range called[fn.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	var decls int
	var dead []string
	for f, path := range r.files {
		if !strings.HasPrefix(path, "xehe/internal/") || strings.HasSuffix(r.fset.File(f.Pos()).Name(), "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || (!fd.Name.IsExported() && fd.Body != nil) {
				continue
			}
			decls++
			fn := r.info.Defs[fd.Name].(*types.Func)
			if !used[fn] && !(fd.Recv != nil && implements(fn)) {
				dead = append(dead, r.fset.Position(fd.Pos()).String()+": "+fn.FullName())
			}
		}
	}
	if decls == 0 {
		t.Fatal("found no exported or bodyless declaration under internal/; the walk is probably broken")
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is used nowhere but its declaration: delete it", d)
	}
	t.Logf("%d packages, %d exported or bodyless declarations under internal/, checked in %v", len(r.pkgs), decls, time.Since(start).Round(time.Millisecond))
}
