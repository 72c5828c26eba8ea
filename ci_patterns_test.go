package steghide_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests holds the CI workflow's test selections to
// the tests that exist: `go test -run` with a name nobody declares
// passes silently, so a renamed or deleted test would drop out of its
// step unnoticed. Every |-alternative of every -run and -fuzz pattern
// in .github/workflows/ci.yml (except ^$, which selects nothing on
// purpose) must match a Test or Fuzz function of a package its command
// names.
func TestCIRunPatternsNameTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, line := range strings.Split(string(ci), "\n") {
		args := shellWords(line)
		i := 0
		for i+1 < len(args) && !(args[i] == "go" && args[i+1] == "test") {
			i++
		}
		if i+1 >= len(args) {
			continue
		}
		var patterns, pkgs []string
		for j := i + 2; j < len(args); j++ {
			switch a := args[j]; {
			case (a == "-run" || a == "-fuzz") && j+1 < len(args):
				patterns = append(patterns, args[j+1])
				j++
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		if len(patterns) == 0 {
			continue
		}
		names := testFuncNames(t, pkgs)
		for _, p := range patterns {
			if p == "^$" {
				continue
			}
			top, _, _ := strings.Cut(p, "/") // the top-level test's pattern
			for _, alt := range strings.Split(top, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml: %q: %v", alt, err)
					continue
				}
				found := false
				for _, n := range names {
					if re.MatchString(n) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("ci.yml: %q matches no Test or Fuzz function in %v:\n  %s", alt, pkgs, strings.TrimSpace(line))
				}
				checked++
			}
		}
	}
	if checked < 50 {
		t.Fatalf("checked only %d pattern alternatives: the scan is not reading the workflow", checked)
	}
}

// shellWords splits one command line on spaces, keeping single-quoted
// words whole.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	quoted, inWord := false, false
	for _, r := range line {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case r == ' ' && !quoted:
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
			}
			inWord = false
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// testFuncNames lists the Test and Fuzz functions declared in the
// packages a go test command names (directories, or dir/... trees).
func testFuncNames(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	collect := func(dir string) {
		files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
		for _, path := range files {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil &&
					(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
					names = append(names, fd.Name.Name)
				}
			}
		}
	}
	for _, p := range pkgs {
		root, tree := strings.CutSuffix(p, "/...")
		if !tree {
			collect(p)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != root && (d.Name() == "testdata" || d.Name() == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir // not in the main module's ./...
			}
			if d.IsDir() {
				collect(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}
