// Command bench is the repository's benchmark: whole file operations
// through the full stack, four named workloads, end-to-end metrics
// with regression bounds and per-layer metrics measured from outside.
// See README.md; BENCHMARK.json at the repo root declares it to the
// driver.
//
//	bash bench/run.sh --workload local-files --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -compare parent.json change.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// report is the full record of one run, as written to -out.
type report struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Trace        bool              `json:"trace"`
	Host         hostShape         `json:"host"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Metrics      map[string]metric `json:"metrics"`
	Samples      map[string]int    `json:"samples,omitempty"`
	Notes        []string          `json:"notes,omitempty"`
	Windows      []float64         `json:"window_ops_per_s,omitempty"`
	SpansDropped int               `json:"spans_dropped,omitempty"`
	Spans        []spanJSON        `json:"spans,omitempty"`
}

// hostShape says what the numbers were measured on.
type hostShape struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Device     string `json:"device"`
}

func host() hostShape {
	h := hostShape{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Device: fmt.Sprintf("NewMemDevice(%d, %d)", devBlockSize, devBlocks),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// driverLine is the last line of standard output, the driver's view.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", wlLocalFiles, "workload to run: local-files, wire-files, oblivious-reads, cover-burst")
	seed := flag.Int64("seed", 1, "seed of the op stream and file content")
	seconds := flag.Float64("seconds", 15, "seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced one-client pass")
	out := flag.String("out", "", "write the full report (host shape, spreads, sample counts, spans) to this file")
	compare := flag.Bool("compare", false, "compare two report files: -compare parent.json change.json")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as this program declares it")
	flag.Parse()

	if *manifest {
		os.Stdout.Write(manifestJSON()) //nolint:errcheck // stdout
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare parent.json change.json")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0}
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printTable(rep)
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	line := driverLine{rep.Correct, rep.Attempted, rep.Failed, map[string]metric{}}
	for name, m := range rep.Metrics {
		line.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
	if !rep.Correct {
		os.Exit(1)
	}
}

// execute runs one workload under the watchdog. A hang is reported as
// every attempted operation failed, not as a stuck job: the operation
// context expires first, and if the stack ignores it the hard deadline
// prints the failure and exits.
func execute(cfg config) (*report, error) {
	if !slices.ContainsFunc(workloads, func(w workloadSpec) bool { return w.Name == cfg.workload }) {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	ctx, cancel := context.WithTimeout(context.Background(), watchdogAfter-10*time.Second)
	defer cancel()
	prog := &progress{}
	watchdog := time.AfterFunc(watchdogAfter, func() {
		attempted, _ := prog.get()
		attempted = max(attempted, 1)
		b, _ := json.Marshal(driverLine{false, attempted, attempted, map[string]metric{}})
		fmt.Fprintln(os.Stderr, "bench: watchdog: run exceeded", watchdogAfter)
		fmt.Println(string(b))
		os.Exit(3)
	})
	defer watchdog.Stop()

	run := runTimed
	if cfg.trace {
		run = runTraced
	}
	res, err := run(ctx, cfg, prog)
	if err != nil {
		return nil, err
	}
	return &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Host: host(),
		Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: res.metrics, Samples: res.samples, Notes: res.notes, Windows: res.windows,
		SpansDropped: res.spansDropped, Spans: res.spans,
	}, nil
}

// printTable prints every metric by name with its unit, in the
// declared order.
func printTable(rep *report) {
	specs := endToEnd
	if rep.Trace {
		specs = perLayer
	}
	h := rep.Host
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Printf("host: %d cpu, GOMAXPROCS %d, %s, commit %s, %s (latencies are the sandbox's, not a disk's)\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Device)
	fmt.Printf("%-36s %16s %-6s %8s %8s\n", "metric", "value", "unit", "spread", "samples")
	for _, s := range specs {
		m := rep.Metrics[s.Name]
		sp, n := "", ""
		if m.Spread != 0 {
			sp = fmt.Sprintf("%.1f%%", 100*m.Spread)
		}
		if c := rep.Samples[s.Name]; c != 0 {
			n = fmt.Sprint(c)
		}
		fmt.Printf("%-36s %16.4f %-6s %8s %8s\n", s.Name, m.Value, m.Unit, sp, n)
	}
	for _, n := range rep.Notes {
		fmt.Println("note:", n)
	}
	fmt.Printf("attempted %d  failed %d  failed_ops_ratio %.6f\n", rep.Attempted, rep.Failed,
		float64(rep.Failed)/float64(max(rep.Attempted, 1)))
}

func writeReport(path string, rep *report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
