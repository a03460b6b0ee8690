package cst_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Every exported declaration in the library must carry a doc comment — the
// facade and all internal packages. Enforced mechanically so the "document
// every public item" deliverable cannot rot.
func TestExportedSymbolsDocumented(t *testing.T) {
	var roots []string
	roots = append(roots, ".")
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			roots = append(roots, filepath.Join("internal", e.Name()))
		}
	}

	fset := token.NewFileSet()
	var missing []string
	for _, dir := range roots {
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for fname, file := range pkg.Files {
				for _, decl := range file.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						if d.Name.IsExported() && d.Doc == nil {
							missing = append(missing, fname+": func "+d.Name.Name)
						}
					case *ast.GenDecl:
						for _, spec := range d.Specs {
							switch sp := spec.(type) {
							case *ast.TypeSpec:
								if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
									missing = append(missing, fname+": type "+sp.Name.Name)
								}
							case *ast.ValueSpec:
								for _, name := range sp.Names {
									if name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
										missing = append(missing, fname+": "+name.Name)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d exported symbols lack doc comments:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// Every exported name in cst.go must be reached from outside its own
// declaration: by another .go file of the module (tests, cmd/ and examples/
// count) or by another cst.go declaration. A facade alias nothing names is
// surface without a caller.
func TestFacadeNamesReferenced(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "cst.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// declared maps each exported facade name to the declaration (a func or
	// one spec of a grouped declaration) that introduces it.
	declared := map[string]ast.Node{}
	var decls []ast.Node
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			decls = append(decls, d)
			if d.Recv == nil && d.Name.IsExported() {
				declared[d.Name.Name] = d
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				decls = append(decls, spec)
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						declared[sp.Name.Name] = sp
					}
				case *ast.ValueSpec:
					for _, name := range sp.Names {
						if name.IsExported() {
							declared[name.Name] = sp
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	// Inside cst.go a bare identifier names a facade declaration; a
	// selector's field names something of another package.
	for _, decl := range decls {
		sel := map[*ast.Ident]bool{}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				sel[x.Sel] = true
			case *ast.Ident:
				if !sel[x] && declared[x.Name] != nil && declared[x.Name] != decl {
					used[x.Name] = true
				}
			}
			return true
		})
	}

	// Elsewhere a reference is a selector on the imported facade package.
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == "cst.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkgName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"cst"` {
				pkgName = "cst"
				if imp.Name != nil {
					pkgName = imp.Name.Name
				}
			}
		}
		if pkgName == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if x, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := x.X.(*ast.Ident); ok && id.Name == pkgName {
					used[x.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	for name := range declared {
		if !used[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported cst.go names are referenced nowhere else; delete them or give them a caller:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
}
