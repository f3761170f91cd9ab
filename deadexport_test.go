package pipemare_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoExportOnlyTestsCall keeps the substrate packages and every package
// the trainer is built from — optimizer, replica, engines, pipeline, trace,
// core, data, metrics, transport, faults — from growing a second API that
// only their own tests exercise: every exported func or method declared
// in a watched package must be referenced from some non-test file of the
// module (benchmark/, cmd/ and examples/ included) other than its own
// declaration. The check is syntactic (no type information): a func
// counts as referenced by a qualified pkg.Name through an import of its
// package, or by a bare Name inside it; a method by any x.Name selector
// anywhere, by an interface type that declares the name (it is called
// through the interface), or by being Error, Unwrap or String (the
// standard library calls them) — so a dead method sharing its name with a
// live one goes unnoticed, never the reverse.
func TestNoExportOnlyTestsCall(t *testing.T) {
	watched := map[string]bool{
		"pipemare/internal/tensor":            true,
		"pipemare/internal/nn":                true,
		"pipemare/internal/model":             true,
		"pipemare/internal/optim":             true,
		"pipemare/internal/replica":           true,
		"pipemare/internal/engine":            true,
		"pipemare/internal/engine/concurrent": true,
		"pipemare/internal/pipeline":          true,
		"pipemare/internal/trace":             true,
		"pipemare/internal/core":              true,
		"pipemare/internal/data":              true,
		"pipemare/internal/metrics":           true,
		"pipemare/internal/transport":         true,
		"pipemare/internal/faults":            true,
	}
	type decl struct{ pkg, name, pos string }
	var funcs, methods []decl
	qualified := map[string]bool{} // "import/path.Name"
	bare := map[string]bool{}      // "import/path.Name", from inside the package
	selected := map[string]bool{   // "Name" of any non-package selector or interface method
		"Error": true, "Unwrap": true, "String": true,
	}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "results" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// The benchmark is its own module, but its import paths sit under
		// pipemare/ like everyone else's.
		pkg := "pipemare"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		imports := map[string]string{} // local name → import path
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		declNames := map[*ast.Ident]bool{} // identifiers that are not references by bare name
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if !watched[pkg] || !fd.Name.IsExported() {
				continue
			}
			dc := decl{pkg, fd.Name.Name, fset.Position(fd.Pos()).String()}
			if fd.Recv == nil {
				funcs = append(funcs, dc)
			} else {
				methods = append(methods, dc)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				declNames[n.Sel] = true // a selection, not a bare name
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						qualified[p+"."+n.Sel.Name] = true
						return true
					}
				}
				selected[n.Sel.Name] = true
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						selected[name.Name] = true
					}
				}
			case *ast.Ident:
				if !declNames[n] {
					bare[pkg+"."+n.Name] = true
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
	for _, d := range funcs {
		if key := d.pkg + "." + d.name; !qualified[key] && !bare[key] {
			dead = append(dead, d.pos+": func "+key)
		}
	}
	for _, d := range methods {
		if !selected[d.name] {
			dead = append(dead, d.pos+": method "+d.pkg+"."+d.name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Fatalf("exported by a watched package and referenced by no non-test file — delete it, or the test that is its only caller:\n  %s",
			strings.Join(dead, "\n  "))
	}
}
