package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// smokeSeconds is the declared run length at 1/100 size.
const smokeSeconds = runSeconds / 100.0

// TestSpecMatchesManifest pins BENCHMARK.json to the tables the
// program reports from; regenerate it with `bash bench/run.sh -manifest`.
func TestSpecMatchesManifest(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Fatalf("BENCHMARK.json differs from the program's declaration; regenerate with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := shapes[w.Name]; !ok {
			t.Errorf("workload %s has no shape", w.Name)
		}
	}
}

// TestSmoke runs every workload at 1/100 size, timed and traced: each
// emits every declared metric with its unit and a finite value, and no
// operation fails. That oblivious-reads builds at all shows its working
// set fits the cache: buildRig refuses a set beyond Store().Capacity().
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name, specs := w.Name+"/timed", endToEnd
			if trace {
				name, specs = w.Name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				rep, err := execute(config{workload: w.Name, seed: 7, seconds: smokeSeconds, trace: trace, setups: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				if len(rep.Metrics) != len(specs) {
					t.Errorf("%d metrics reported, %d declared", len(rep.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := rep.Metrics[s.Name]
					switch {
					case !ok:
						t.Errorf("%s not reported", s.Name)
					case m.Unit != s.Unit:
						t.Errorf("%s: unit %q, declared %q", s.Name, m.Unit, s.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: value %v is not finite", s.Name, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("%s: end-to-end metrics are never 0, got %v", s.Name, m.Value)
					}
				}
				if trace {
					checkIdleLayers(t, w.Name, rep)
				}
			})
		}
	}
}

// checkIdleLayers holds each workload to its "does little" claim: the
// layers it says it bypasses must report no work.
func checkIdleLayers(t *testing.T, workload string, rep *report) {
	t.Helper()
	zero := func(names ...string) {
		for _, n := range names {
			if v := rep.Metrics[n].Value; v != 0 {
				t.Errorf("%s on %s = %v, want 0", n, workload, v)
			}
		}
	}
	if workload != wlWireFiles {
		zero("wire.round_trips_per_op", "wire.conn_writes_per_op", "wire.bytes_per_user_byte", "wire.rtt_p50_us", "wire.share")
	}
	if workload != wlObliviousReads {
		zero("oblivious.gets", "oblivious.hits", "oblivious.flushes", "oblivious.store_probe_us_per_get", "oblivious.share")
	} else {
		zero("journal.slot_writes", "journal.busy_ms", "journal.share")
		if rep.Metrics["oblivious.gets"].Value == 0 {
			t.Error("oblivious-reads made no cache gets")
		}
	}
	if workload == wlLocalFiles {
		if r := rep.Metrics["sched.e_residual"].Value; r < 0.9 || r > 1.1 {
			t.Errorf("sched.e_residual = %v at smoke size, want about 1", r)
		}
	}
}

// TestCorruptionIsCaught proves the checker checks: a device that
// flips one stored byte per block read must yield failed operations.
func TestCorruptionIsCaught(t *testing.T) {
	rep, err := execute(config{workload: wlLocalFiles, seed: 7, seconds: smokeSeconds, setups: 1, corrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("corrupt device went unnoticed: correct=%v failed=%d of %d", rep.Correct, rep.Failed, rep.Attempted)
	}
}

// TestCompare: only differences beyond the bound are printed, and a
// spread beyond the bound is unresolved, not a verdict.
func TestCompare(t *testing.T) {
	mk := func(ops, spread, p50 float64) *report {
		rep := &report{Workload: wlLocalFiles, Correct: true, Attempted: 1, Metrics: map[string]metric{}}
		for _, s := range endToEnd {
			rep.Metrics[s.Name] = metric{Value: 1, Unit: s.Unit}
		}
		rep.Metrics["ops_per_s"] = metric{Value: ops, Unit: "1/s", Spread: spread}
		rep.Metrics["op_p50_us"] = metric{Value: p50, Unit: "us"}
		return rep
	}
	dir := t.TempDir()
	write := func(name string, reps ...*report) string {
		var buf bytes.Buffer
		for _, r := range reps {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
			buf.WriteByte('\n')
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	parent := write("parent.json", mk(1000, 0.02, 100))

	var out bytes.Buffer
	if err := compareFiles(&out, parent, write("same.json", mk(990, 0.02, 101))); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no difference beyond the declared bounds") {
		t.Errorf("differences inside the bounds were printed:\n%s", out.String())
	}

	out.Reset()
	if err := compareFiles(&out, parent, write("slow.json", mk(700, 0.02, 100))); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "REGRESSION") || strings.Contains(out.String(), "op_p50_us") {
		t.Errorf("want exactly the ops_per_s regression row, got:\n%s", out.String())
	}

	out.Reset()
	if err := compareFiles(&out, parent, write("noisy.json", mk(700, 0.40, 100))); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "unresolved") || strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a spread beyond the bound must read unresolved, got:\n%s", out.String())
	}
}

// TestPercentile pins the nearest-rank definition the tails rely on.
func TestPercentile(t *testing.T) {
	v := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := []float64{median([]float64{3, 1, 2}), median([]float64{4, 1, 2, 3})}; !reflect.DeepEqual(got, []float64{2, 2.5}) {
		t.Errorf("median = %v", got)
	}
}
