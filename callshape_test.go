package steghide_test

import (
	"context"
	"slices"
	"testing"

	"steghide"
	"steghide/internal/attack"
	"steghide/internal/blockdev"
)

// TestRunCallShapeEqualsBurst is the call-granularity half of
// Definition 1 on the full stack (Mount, journal on, device traced): a
// 64-block WriteAt that emitted m stream elements and an idle
// DummyUpdateBurst of m must reduce to the same skeleton — one run of m
// ring slots, one scattered read of m blocks, one scattered write of m
// blocks — so grouping, like addresses, cannot tell a real run from
// cover traffic.
func TestRunCallShapeEqualsBurst(t *testing.T) {
	ctx := context.Background()
	tap := &steghide.Collector{}
	stack, err := steghide.Mount(steghide.NewMemDevice(512, 4096),
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("shape"), KDFIterations: 4}),
		steghide.WithJournal("admin-pass"),
		steghide.WithTrace(tap),
		steghide.WithSeed([]byte("shape-agent")))
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close() //nolint:errcheck // test teardown
	fs, err := stack.Login("u", "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateDummy(ctx, "/cover", 1024); err != nil {
		t.Fatal(err)
	}
	const blocks = 64
	data := make([]byte, blocks*stack.Volume().PayloadSize())
	if err := steghide.WriteFile(ctx, fs, "/f", data); err != nil {
		t.Fatal(err)
	}
	h, err := fs.OpenWrite(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close() //nolint:errcheck // test teardown

	agent := stack.Agent2()
	first := stack.Volume().FirstDataBlock()
	before := agent.Stats()
	tap.Reset()
	if _, err := h.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	run := attack.CallShape(tap.Events(), first)
	after := agent.Stats()
	m := (after.DataUpdates - before.DataUpdates) + (after.Camouflage - before.Camouflage)
	if after.DataUpdates-before.DataUpdates != blocks || m < blocks {
		t.Fatalf("a %d-block write emitted %d stream elements: %+v", blocks, m, after)
	}

	tap.Reset()
	issued, err := agent.DummyUpdateBurst(int(m))
	if err != nil || uint64(issued) != m {
		t.Fatalf("burst issued %d of %d: %v", issued, m, err)
	}
	burst := attack.CallShape(tap.Events(), first)

	want := []attack.Shape{
		{Op: blockdev.OpWrite, Ring: true, Blocks: m},
		{Op: blockdev.OpRead, Blocks: m},
		{Op: blockdev.OpWrite, Blocks: m},
	}
	if !slices.Equal(run, want) {
		t.Errorf("64-block WriteAt (%d elements) has shape %+v, want %+v", m, run, want)
	}
	if !slices.Equal(burst, run) {
		t.Errorf("burst of %d has shape %+v, the run's is %+v", m, burst, run)
	}
}
