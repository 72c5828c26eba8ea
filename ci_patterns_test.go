package steghide_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
	for _, c := range ciCommands(t) {
		var patterns, pkgs []string
		for j := 0; j < len(c.args); j++ {
			switch a := c.args[j]; {
			case (a == "-run" || a == "-fuzz") && j+1 < len(c.args):
				patterns = append(patterns, c.args[j+1])
				j++
			case a == "." || strings.HasPrefix(a, "./"):
				if c.dir != "" {
					a = filepath.Join(c.dir, a)
				}
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
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("ci.yml: %q matches no Test or Fuzz function in %v:\n  %s", alt, pkgs, c.line)
				}
			}
		}
	}
}

// TestCIAddsNothingOverTest keeps each test to one run per build and
// flag set. The Test step's `go test ./...` runs every test of the
// module; another `go test` of that module that carries no -race, no
// -count above 1, no -fuzz, no -bench, no -tags and no environment
// (GOARCH, GODEBUG) runs tests that Test has already run, under the
// same build, and only costs CI time.
func TestCIAddsNothingOverTest(t *testing.T) {
	found, hasTest := reruns(ciCommands(t))
	if !hasTest {
		t.Fatal("ci.yml: no plain `go test ./...` command: nothing runs every test once")
	}
	for _, c := range found {
		t.Errorf("ci.yml: this command re-runs tests that `go test ./...` runs, under the same build:\n  %s", c.line)
	}
}

// TestCIRerunClassifier pins what counts as adding something over a
// plain `go test ./...`, and which command of a workflow is the
// reference the others are measured against.
func TestCIRerunClassifier(t *testing.T) {
	for _, tc := range []struct {
		line    string
		nothing bool
	}{
		{"go test -run 'TestA|TestB' -count=1 -v ./internal/x/", true},
		{"run: go test -count=1 -v -run 'TestA' ./internal/x/ .", true},
		{"go test -run=TestA -count 1 .", true},
		{"go test -count=1 ./internal/x/", true},
		{"go test ./...", true},
		{"go -C bench test -run TestA ./...", true},
		{"go test -race -count=10 -run 'TestA' ./internal/x/", false},
		{"go test --race -run TestA .", false},
		{"go test -count 20 -run TestA .", false},
		{"go test -count=2 ./internal/x/", false},
		{"GODEBUG=gccheckmark=1 go test -count=1 -run 'FSConformance' .", false},
		{"run: GOARCH=386 go test -run TestA ./...", false},
		{"go test -count=1 -tags purego ./internal/... .", false},
		{"go test -run '^$' -fuzz 'FuzzA' -fuzztime 10s ./internal/x/", false},
		{"go test -run '^$' -bench . -benchtime 1x ./...", false},
		{"go test -run '^$' ./...", false},
	} {
		c, ok := parseGoTest(tc.line)
		if !ok {
			t.Errorf("%s: does not parse", tc.line)
			continue
		}
		if got := addsNothingOverTest(c); got != tc.nothing {
			t.Errorf("%s: adds nothing over Test = %v, want %v", tc.line, got, tc.nothing)
		}
	}

	workflow := `
      - name: Test
        run: |
          go test ./...
          go -C bench test ./...
      # go test -run TestA ./... in a comment is no command
      - name: Again
        run: go test ./...
      - run: go -C bench test -count=1 -run TestA ./...
      - run: go -C tools test -run TestA ./...
      - run: go test -race -run TestA ./...
`
	found, hasTest := reruns(parseCI(t, workflow))
	var lines []string
	for _, c := range found {
		lines = append(lines, c.line)
	}
	want := []string{"run: go test ./...", "- run: go -C bench test -count=1 -run TestA ./..."}
	if !hasTest || !slices.Equal(lines, want) {
		t.Errorf("reruns = %q (Test found: %v), want %q", lines, hasTest, want)
	}
	if _, hasTest := reruns(parseCI(t, "run: go test -race ./...\n")); hasTest {
		t.Error("a -race run was taken for the plain `go test ./...`")
	}
}

// A ciCommand is one `go test` invocation of the CI workflow: its
// environment prefix, its -C directory and the words after `test`.
type ciCommand struct {
	line string
	env  []string
	dir  string
	args []string
}

// runsAll reports whether c is a plain `go test ./...`.
func (c ciCommand) runsAll() bool {
	return len(c.env) == 0 && slices.Equal(c.args, []string{"./..."})
}

// addsNothingOverTest reports whether c runs only what a plain
// `go test ./...` of its module runs, under the same build and flags.
func addsNothingOverTest(c ciCommand) bool {
	if len(c.env) > 0 {
		return false
	}
	for j := 0; j < len(c.args); j++ {
		flag, value, hasValue := strings.Cut(strings.TrimLeft(c.args[j], "-"), "=")
		switch flag {
		case "run", "count", "fuzz", "bench", "tags":
			if !hasValue && j+1 < len(c.args) {
				value = c.args[j+1]
				j++
			}
		}
		switch {
		case flag == "race", flag == "fuzz", flag == "bench", flag == "tags":
			return false
		case flag == "count" && value != "1":
			return false
		case flag == "run" && value == "^$":
			return false // selects no test
		}
	}
	return true
}

// reruns returns the commands that add nothing over their module's
// plain `go test ./...` (the first one in the workflow is the
// reference; a later one is a re-run too), and whether the root module
// has that reference at all.
func reruns(cmds []ciCommand) (found []ciCommand, hasTest bool) {
	ref := map[string]int{} // -C directory → index of its plain `go test ./...`
	for i, c := range cmds {
		if _, seen := ref[c.dir]; !seen && c.runsAll() {
			ref[c.dir] = i
		}
	}
	for i, c := range cmds {
		if r, ok := ref[c.dir]; ok && i != r && addsNothingOverTest(c) {
			found = append(found, c)
		}
	}
	_, hasTest = ref[""]
	return found, hasTest
}

// ciCommands parses every `go test` command of .github/workflows/ci.yml.
func ciCommands(t *testing.T) []ciCommand {
	t.Helper()
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	return parseCI(t, string(ci))
}

// parseCI reads one `go test` command per line, outside comments. It
// fails the test when a line holds `go test` and does not parse as one
// command, or when the text has none: a scan that reads nothing would
// pass every lint built on it.
func parseCI(t *testing.T, text string) []ciCommand {
	t.Helper()
	var cmds []ciCommand
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "#") || !goTest.MatchString(line) {
			continue
		}
		c, ok := parseGoTest(line)
		if !ok || len(goTest.FindAllString(line, -1)) != 1 {
			t.Fatalf("ci.yml: cannot read one `go test` command in:\n  %s", line)
		}
		cmds = append(cmds, c)
	}
	if len(cmds) == 0 {
		t.Fatal("ci.yml: no `go test` command found: the scan is not reading the workflow")
	}
	return cmds
}

var goTest = regexp.MustCompile(`\bgo (-C \S+ )?test\b`)

// parseGoTest reads `[- ][run:] [VAR=value...] go [-C dir] test args...`.
func parseGoTest(line string) (ciCommand, bool) {
	words := shellWords(line)
	if len(words) > 0 && words[0] == "-" {
		words = words[1:]
	}
	if len(words) > 0 && words[0] == "run:" {
		words = words[1:]
	}
	c := ciCommand{line: line}
	for len(words) > 0 && strings.Contains(words[0], "=") {
		c.env, words = append(c.env, words[0]), words[1:]
	}
	if len(words) == 0 || words[0] != "go" {
		return c, false
	}
	words = words[1:]
	if len(words) > 2 && words[0] == "-C" {
		c.dir, words = words[1], words[2:]
	}
	if len(words) == 0 || words[0] != "test" {
		return c, false
	}
	c.args = words[1:]
	return c, true
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
