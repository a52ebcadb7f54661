package doda_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// docRef matches a root-package name as importers write it.
var docRef = regexp.MustCompile(`\bdoda\.([A-Z][A-Za-z0-9_]*)`)

// TestFacadeExportsAreDocumented keeps the root package to the names its
// documented recipes use. An exported top-level name stays only if
//   - `doda.<Name>` is written in a .go file under examples/, cmd/ or
//     perfbench/, or in README.md or EXPERIMENTS.md;
//   - a root Example function uses it; or
//   - it is a parameter or result type of a name kept by these rules.
//
// Everything else reaches its internal package directly.
func TestFacadeExportsAreDocumented(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	signatures := map[string]*ast.FuncType{}
	kept := map[string]bool{}
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(name, "_test.go") {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Example") {
					ast.Inspect(fn.Body, func(n ast.Node) bool {
						if sel, ok := n.(*ast.SelectorExpr); ok {
							if x, ok := sel.X.(*ast.Ident); ok && x.Name == "doda" {
								kept[sel.Sel.Name] = true
							}
						}
						return true
					})
				}
			}
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					exported[d.Name.Name] = true
					signatures[d.Name.Name] = d.Type
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							exported[s.Name.Name] = true
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								exported[id.Name] = true
							}
						}
					}
				}
			}
		}
	}
	docs := []string{"README.md", "EXPERIMENTS.md"}
	for _, dir := range []string{"examples", "cmd", "perfbench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				docs = append(docs, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range docs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docRef.FindAllSubmatch(b, -1) {
			kept[string(m[1])] = true
		}
	}

	// A kept function's parameter and result types stay with it.
	for grew := true; grew; {
		grew = false
		for name, sig := range signatures {
			if !kept[name] {
				continue
			}
			var fields []*ast.Field
			fields = append(fields, sig.Params.List...)
			if sig.Results != nil {
				fields = append(fields, sig.Results.List...)
			}
			for _, field := range fields {
				ast.Inspect(field.Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && exported[id.Name] && !kept[id.Name] {
						kept[id.Name] = true
						grew = true
					}
					return true
				})
			}
		}
	}

	var unused []string
	for name := range exported {
		if !kept[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("the root package exports %d of %d names that no documented recipe uses; "+
			"reach them through their internal packages instead:\n%s",
			len(unused), len(exported), strings.Join(unused, "\n"))
	}
}
