package steghide_test

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"steghide"
	"steghide/internal/attack"
	"steghide/internal/blockdev"
	"steghide/internal/journal"
)

// ringCellsChanged counts the journal cells that differ between two
// snapshots of a volume whose ring is blocks [1, firstData).
func ringCellsChanged(before, after []byte, bs int, firstData uint64) (cells uint64) {
	for off := bs; off < int(firstData)*bs; off += journal.CellSize {
		if !bytes.Equal(before[off:off+journal.CellSize], after[off:off+journal.CellSize]) {
			cells++
		}
	}
	return cells
}

// TestRunCallShapeEqualsBurst is the call-granularity half of
// Definition 1 on the full stack (Mount, journal on, device traced): a
// 64-block WriteAt that emitted m stream elements and an idle
// DummyUpdateBurst of m, started at the same offset into a ring slot,
// must reduce to the same skeleton — one write of the ⌈m/k⌉ (+1 when
// straddling) ring slots that hold the batch's m cells, one scattered
// read of m blocks, one scattered write of m blocks — and change the
// same number of ring cells, m: grouping, like addresses, cannot tell a
// real run from cover traffic, on the trace or between snapshots.
func TestRunCallShapeEqualsBurst(t *testing.T) {
	ctx := context.Background()
	tap := &steghide.Collector{}
	const bs = 512
	const k = bs / journal.CellSize
	mem := steghide.NewMemDevice(bs, 4096)
	stack, err := steghide.Mount(mem,
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
	snap := mem.Snapshot()
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
	runSnap := mem.Snapshot()
	if got := ringCellsChanged(snap, runSnap, bs, first); got != m {
		t.Errorf("the run of %d elements changed %d ring cells", m, got)
	}

	// Which slots a batch of m cells touches depends on where in a slot
	// it starts — a function of the element count so far, which the
	// observer has. Pad with fillers to the run's starting offset.
	if pad := (k - int(m%k)) % k; pad > 0 {
		if issued, err := agent.DummyUpdateBurst(pad); err != nil || issued != pad {
			t.Fatalf("padding burst issued %d of %d: %v", issued, pad, err)
		}
		runSnap = mem.Snapshot()
	}
	tap.Reset()
	issued, err := agent.DummyUpdateBurst(int(m))
	if err != nil || uint64(issued) != m {
		t.Fatalf("burst issued %d of %d: %v", issued, m, err)
	}
	burst := attack.CallShape(tap.Events(), first)
	if got := ringCellsChanged(runSnap, mem.Snapshot(), bs, first); got != m {
		t.Errorf("the burst of %d elements changed %d ring cells", m, got)
	}

	if len(run) != 3 || run[0].Blocks < (m+k-1)/k || run[0].Blocks > (m+k-1)/k+1 {
		t.Fatalf("64-block WriteAt (%d elements) has shape %+v", m, run)
	}
	want := []attack.Shape{
		{Op: blockdev.OpWrite, Ring: true, Blocks: run[0].Blocks},
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
