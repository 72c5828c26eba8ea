package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateFiguresGolden = flag.Bool("update-figures-golden", false,
	"rewrite testdata/quick.golden from the current source")

// wallClock names the columns whose cells come from a wall clock and
// are masked before the golden comparison: the journal table's rates,
// their overhead, and the write counts of the fastest round.
var wallClock = map[string][]string{
	"journal": {"upd/s plain", "upd/s journaled", "overhead", "writes/upd plain", "writes/upd journaled"},
}

// TestSmokeAll regenerates every experiment at QuickScale and compares
// the printed tables, as RunAndPrint writes them, with
// testdata/quick.golden. The disk model's virtual clock makes every
// figure deterministic; only the wallClock columns are masked. Beside
// the golden it asserts the paper's shapes, so that re-pinning a golden
// that broke them still fails. Intentional changes regenerate it:
//
//	go test ./internal/experiments/ -run SmokeAll -update-figures-golden
func TestSmokeAll(t *testing.T) {
	s := QuickScale()
	var got bytes.Buffer
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			checkShape(t, tab)
			for _, name := range wallClock[e.ID] {
				c := column(t, tab, name)
				for _, row := range tab.Rows {
					row[c] = "*"
				}
			}
			e.print(tab, &got)
		})
	}
	if t.Failed() {
		return
	}
	golden := filepath.Join("testdata", "quick.golden")
	if *updateFiguresGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing figures golden (run with -update-figures-golden to create it): %v", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("figures differ from %s at line %d:\n got: %s\nwant: %s\n"+
				"If intentional, regenerate with: go test ./internal/experiments/ -run SmokeAll -update-figures-golden",
				golden, i+1, g, w)
		}
	}
}

// checkShape asserts the paper's claim for the tables that state one
// as a shape rather than a number.
func checkShape(t *testing.T, tab *Table) {
	t.Helper()
	switch tab.ID {
	case "eq1":
		// Measured E tracks N/D within 20% at every utilisation.
		for i, e := range numbers(t, tab, "relative error") {
			if e < -20 || e > 20 {
				t.Errorf("eq1 row %d: relative error %+.1f%% beyond ±20%%", i, e)
			}
		}
	case "table4":
		// A bigger buffer means a shorter hierarchy and a cheaper read,
		// in the paper's cost model and as measured.
		for _, c := range []string{"height", "overhead (analytic)", "I/Os per read (measured)"} {
			strictlyFalls(t, tab, c)
		}
	case "fig12a":
		strictlyFalls(t, tab, "ratio")
	case "fig12b":
		strictlyFalls(t, tab, "sorting overhead")
	case "security":
		sys, verdict := column(t, tab, "system"), column(t, tab, "attacker verdict")
		for _, row := range tab.Rows {
			want := "cannot distinguish"
			if row[sys] == nameStegFS {
				want = "HIDDEN ACTIVITY DETECTED"
			}
			if row[verdict] != want {
				t.Errorf("security: %s reads %q, want %q", row[sys], row[verdict], want)
			}
		}
	}
}

// strictlyFalls asserts a column decreases down the rows.
func strictlyFalls(t *testing.T, tab *Table, name string) {
	t.Helper()
	v := numbers(t, tab, name)
	for i := 1; i < len(v); i++ {
		if v[i] >= v[i-1] {
			t.Errorf("%s: %q does not fall at row %d (%v)", tab.ID, name, i, v)
		}
	}
}

// numbers parses a column's cells, dropping a "%" or "x" suffix.
func numbers(t *testing.T, tab *Table, name string) []float64 {
	t.Helper()
	c := column(t, tab, name)
	out := make([]float64, len(tab.Rows))
	for i, row := range tab.Rows {
		v, err := strconv.ParseFloat(strings.TrimRight(row[c], "%x"), 64)
		if err != nil {
			t.Fatalf("%s: %q row %d: %v", tab.ID, name, i, err)
		}
		out[i] = v
	}
	return out
}

// column returns the index of a named column.
func column(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, c := range tab.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("%s has no column %q", tab.ID, name)
	return -1
}
