// Command benchrunner regenerates the tables and figures of the
// paper's evaluation (§6) and prints them in the same rows/series the
// paper reports.
//
// Usage:
//
//	benchrunner [-scale quick|paper] [-run all|fig10a|fig10b|fig11a|
//	             fig11b|fig11c|table4|fig12a|fig12b|eq1|security]
//	             [-seed N] [-list] [-journal]
//
// Performance is measured by the rig under bench/ (see BENCHMARK.json);
// this command only reproduces the paper's figures.
//
// The quick scale keeps every ratio of the paper's setup (utilization,
// N/B, fragment size, level heights) at two orders of magnitude fewer
// blocks; the paper scale uses the paper's block counts and the
// 2004-era disk model, so the absolute numbers land near the
// published ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"steghide/internal/experiments"
)

func main() {
	var (
		scaleName = flag.String("scale", "paper", "experiment scale: quick or paper")
		runIDs    = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		seed      = flag.Uint64("seed", 0, "override the scale's random seed (0 = default)")
		list      = flag.Bool("list", false, "list experiments and exit")
		journaled = flag.Bool("journal", false, "run the steg systems with the sealed intent journal enabled")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Claim)
		}
		return
	}

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.QuickScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or paper)\n", *scaleName)
		os.Exit(2)
	}
	if *seed != 0 {
		scale.Seed = *seed
	}
	scale.Journal = *journaled

	var selected []experiments.Experiment
	if *runIDs == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, err := experiments.Lookup(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	fmt.Printf("steghide benchrunner — scale=%s seed=%d\n", *scaleName, scale.Seed)
	fmt.Printf("reproducing: Zhou, Pang, Tan. Hiding Data Accesses in Steganographic File System. ICDE 2004.\n\n")
	for _, e := range selected {
		start := time.Now()
		if err := e.RunAndPrint(scale, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("  [%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
