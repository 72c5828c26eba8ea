package steghide_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPIGolden = flag.Bool("update-api-golden", false,
	"rewrite testdata/api.golden from the current source")

// TestPublicAPIGolden pins the package's exported surface — every
// exported type, function, method, variable and constant, with full
// signatures — against a checked-in snapshot (the go doc view,
// derived from the AST). An accidental facade break (renamed method,
// changed signature, dropped re-export) fails CI with a diff instead
// of surfacing in a downstream build. Intentional changes regenerate
// the snapshot:
//
//	go test -run PublicAPIGolden -update-api-golden .
func TestPublicAPIGolden(t *testing.T) {
	got := renderPublicAPI(t, ".")
	golden := filepath.Join("testdata", "api.golden")
	if *updateAPIGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing API snapshot (run with -update-api-golden to create it): %v", err)
	}
	if string(want) == got {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	seen := map[string]bool{}
	for _, l := range wantLines {
		seen[l] = true
	}
	var added []string
	for _, l := range gotLines {
		if !seen[l] {
			added = append(added, l)
		}
	}
	seen = map[string]bool{}
	for _, l := range gotLines {
		seen[l] = true
	}
	var removed []string
	for _, l := range wantLines {
		if !seen[l] {
			removed = append(removed, l)
		}
	}
	t.Errorf("public API changed.\nadded:\n  %s\nremoved:\n  %s\n"+
		"If intentional, regenerate with: go test -run PublicAPIGolden -update-api-golden .",
		strings.Join(added, "\n  "), strings.Join(removed, "\n  "))
}

// exportsWithoutCallers lists the top-level functions that no program
// in cmd/, examples/ or bench/ calls, each with the reason it stays.
var exportsWithoutCallers = map[string]string{
	"WithTrace": "every Definition-1 oracle taps a Mount-built stack through it",
}

// TestExportsHaveCallers keeps the facade to one way in: every
// top-level function in api.golden is called as steghide.X by a
// program in cmd/, examples/ or bench/ (found in the parsed source, so
// a comment does not count), or sits on exportsWithoutCallers.
func TestExportsHaveCallers(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "api.golden"))
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	for _, line := range strings.Split(string(golden), "\n") {
		if decl, ok := strings.CutPrefix(line, "func "); ok && !strings.HasPrefix(decl, "(") {
			funcs[decl[:strings.Index(decl, "(")]] = true
		}
	}
	called := map[string]bool{}
	for _, root := range []string{"cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // build output
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == `"steghide"` {
					pkg = "steghide"
					if imp.Name != nil {
						pkg = imp.Name.Name
					}
				}
			}
			if pkg == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
						called[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for fn := range funcs {
		_, allowed := exportsWithoutCallers[fn]
		switch {
		case called[fn] && allowed:
			t.Errorf("%s has a caller now: drop it from exportsWithoutCallers", fn)
		case !called[fn] && !allowed:
			t.Errorf("no program in cmd/, examples/ or bench/ calls steghide.%s: fold it into Mount, DialFS or NewServer, or delete it", fn)
		}
	}
	for fn := range exportsWithoutCallers {
		if !funcs[fn] {
			t.Errorf("exportsWithoutCallers names %s, which api.golden does not list", fn)
		}
	}
}

// renderPublicAPI extracts every exported declaration of the package
// in dir as one sorted, comment-free listing.
func renderPublicAPI(t *testing.T, dir string) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["steghide"]
	if !ok {
		t.Fatalf("package steghide not found in %s", dir)
	}
	var entries []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			entries = append(entries, renderDecl(t, fset, decl)...)
		}
	}
	sort.Strings(entries)
	return strings.Join(entries, "\n") + "\n"
}

// renderDecl returns the exported API entries of one declaration.
func renderDecl(t *testing.T, fset *token.FileSet, decl ast.Decl) []string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedRecv(d.Recv) {
			return nil
		}
		fn := *d
		fn.Doc = nil
		fn.Body = nil
		return []string{render(t, fset, &fn)}
	case *ast.GenDecl:
		var out []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				ts := *s
				ts.Doc, ts.Comment = nil, nil
				stripFieldDocs(ts.Type)
				out = append(out, "type "+render(t, fset, &ts))
			case *ast.ValueSpec:
				vs := *s
				vs.Doc, vs.Comment = nil, nil
				var names []*ast.Ident
				for _, n := range vs.Names {
					if n.IsExported() {
						names = append(names, n)
					}
				}
				if len(names) == 0 {
					continue
				}
				// Values (not the initializer expressions) are the API;
				// keep names and any explicit type.
				vs.Names = names
				vs.Values = nil
				kw := "var "
				if d.Tok == token.CONST {
					kw = "const "
				}
				out = append(out, kw+render(t, fset, &vs))
			}
		}
		return out
	}
	return nil
}

// exportedRecv reports whether a method's receiver type is exported
// (functions have a nil receiver and always qualify).
func exportedRecv(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return true
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// stripFieldDocs removes comments from struct/interface bodies so the
// snapshot tracks signatures, not prose.
func stripFieldDocs(n ast.Node) {
	ast.Inspect(n, func(node ast.Node) bool {
		if f, ok := node.(*ast.Field); ok {
			f.Doc, f.Comment = nil, nil
		}
		return true
	})
}

// render prints a node as one whitespace-normalized line.
func render(t *testing.T, fset *token.FileSet, n any) string {
	t.Helper()
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.RawFormat}
	if err := cfg.Fprint(&buf, fset, n); err != nil {
		t.Fatalf("print: %v", err)
	}
	fields := strings.Fields(buf.String())
	return fmt.Sprintf("%s", strings.Join(fields, " "))
}
