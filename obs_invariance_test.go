package steghide_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"steghide"
	"steghide/internal/attack"
)

// runMetricsOracle is runOracle's workload with the metrics
// registry as the toggled variable: a journaled Construction-2 stack
// on a traced in-memory device, a fixed interleaving of real writes
// and dummy bursts, and every observable collected — trace, final
// image, scheduler counters, spatial-uniformity and Definition-1
// verdicts. When reg is non-nil the full observability plane is live
// (scheduler histograms, journal gauges).
func runMetricsOracle(t *testing.T, reg *steghide.Metrics) oracleRun {
	t.Helper()
	tap := &steghide.Collector{}
	mem := steghide.NewMemDevice(512, 4096)
	opts := []steghide.Option{
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("obs-oracle-fill")}),
		steghide.WithConstruction2(),
		steghide.WithSeed([]byte("obs-oracle-agent")),
		steghide.WithTrace(tap),
		steghide.WithJournal("obs-oracle-journal"),
	}
	if reg != nil {
		opts = append(opts, steghide.WithMetrics(reg), steghide.WithVolumeName("obsvault"))
	}
	stack, err := steghide.Mount(mem, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fs, err := stack.Login("carol", "obs-oracle-pass")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateDummy(ctx, "/obs-cover", 96); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create(ctx, "/obs-hidden-doc"); err != nil {
		t.Fatal(err)
	}
	agent := stack.Agent2()
	ua := steghide.NewUpdateAnalyzer(512, 4096)
	if err := ua.Observe(mem.Snapshot()); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if _, err := agent.DummyUpdateBurst(40); err != nil {
			t.Fatal(err)
		}
	}
	if err := ua.Observe(mem.Snapshot()); err != nil {
		t.Fatal(err)
	}
	idle := ua.ChangedBlocks()

	payload := bytes.Repeat([]byte("metrics oracle "), 20)
	w, err := fs.OpenWrite(ctx, "/obs-hidden-doc")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.WriteAt(payload, int64(i*len(payload))); err != nil {
			t.Fatal(err)
		}
		if _, err := agent.DummyUpdateBurst(40); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ua.Observe(mem.Snapshot()); err != nil {
		t.Fatal(err)
	}
	active := ua.ChangedBlocks()

	uniform, err := ua.SpatialUniformity(16)
	if err != nil {
		t.Fatal(err)
	}
	def1, err := attack.CompareStreams(idle, active, mem.NumBlocks(), 16)
	if err != nil {
		t.Fatal(err)
	}
	stats := agent.Stats()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := stack.Close(); err != nil {
		t.Fatal(err)
	}
	return oracleRun{
		events:  tap.Events(),
		image:   mem.Snapshot(),
		stats:   stats,
		uniform: uniform,
		def1:    def1,
	}
}

// TestMetricsObservableInvariance is the leakage oracle of the
// observability plane: attaching the full metrics registry must not
// move a single bit an attacker can see. The device trace, final
// volume image, scheduler counters, and both §3.2 verdicts have to
// be identical with the registry on and off — instrumentation that
// changed the observable stream would itself be a covert channel.
func TestMetricsObservableInvariance(t *testing.T) {
	off := runMetricsOracle(t, nil)
	reg := steghide.NewMetrics()
	on := runMetricsOracle(t, reg)

	if len(off.events) != len(on.events) {
		t.Fatalf("trace length moved: %d off vs %d on", len(off.events), len(on.events))
	}
	for i := range off.events {
		oe, ne := off.events[i], on.events[i]
		if oe.Op != ne.Op || oe.Block != ne.Block || oe.Count != ne.Count {
			t.Fatalf("tap diverged at op %d: off %+v on %+v", i, oe, ne)
		}
	}
	if !bytes.Equal(off.image, on.image) {
		t.Fatal("final volume images differ between metrics-off and metrics-on runs")
	}
	if off.stats != on.stats {
		t.Fatalf("scheduler counters moved: off %+v on %+v", off.stats, on.stats)
	}
	if off.uniform != on.uniform || off.def1 != on.def1 {
		t.Fatalf("attacker verdicts moved:\noff %+v / %+v\non  %+v / %+v",
			off.uniform, off.def1, on.uniform, on.def1)
	}
	if off.def1.Detected {
		t.Fatalf("Definition-1 attacker separated idle from active on the baseline: %+v", off.def1)
	}

	// The exposition itself is an operator-facing surface: it must
	// carry the series the run populated and none of the hidden-volume
	// material — pathnames, passphrases, usernames, journal secrets.
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"steghide_sched_data_updates_total",
		"steghide_sched_dummy_updates_total",
		"steghide_sched_burst_seconds",
		"steghide_journal_ring_slots",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	for _, secret := range []string{
		"obs-hidden-doc", "obs-cover", // pathnames (dummy and hidden alike)
		"obs-oracle-pass",    // passphrase
		"obs-oracle-journal", // journal passphrase
		"carol",              // local-login identity (not wire-visible here)
	} {
		if strings.Contains(text, secret) {
			t.Errorf("exposition leaks %q", secret)
		}
	}
}
