package xehe

// A gate against dead library code: every exported function or method
// declared under internal/ must be named somewhere other than its own
// declaration. The scan covers every .go file of the repository —
// tests, commands, examples and the benchmark module included — so a
// declaration only a test calls passes; whether such a declaration
// belongs in the library is a question for review, not for this test.
// Matching is by identifier, not by type: a dead method that shares its
// name with a called one passes, but a called one is never rejected.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// implicitMethods are called through interfaces the standard library
// declares (fmt.Stringer, error, json.Marshaler), so no identifier in
// this repository names them at the call.
var implicitMethods = map[string]bool{"String": true, "Error": true, "MarshalJSON": true}

func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ name, where string }
	var decls []decl
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		library := strings.HasPrefix(filepath.ToSlash(path), "internal/") && !strings.HasSuffix(path, "_test.go")
		own := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fn.Name] = true
			if library && fn.Name.IsExported() && !(fn.Recv != nil && implicitMethods[fn.Name.Name]) {
				decls = append(decls, decl{fn.Name.Name, fset.Position(fn.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declaration under internal/; the walk is probably broken")
	}
	var dead []string
	for _, d := range decls {
		if !used[d.name] {
			dead = append(dead, d.where+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is named nowhere but its declaration: delete it", d)
	}
}
