package steghide_test

import (
	"bytes"
	"context"
	"net"
	"slices"
	"sync"
	"testing"

	"steghide"
	"steghide/internal/attack"
	"steghide/internal/blockdev"
	"steghide/internal/journal"
	"steghide/internal/wire"
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

// frameTap is the observer of §3.2 who taps the storage channel and
// sees frames instead of block events: per direction, how many bytes
// moved before the other direction spoke. Server-side Writes are kept
// one entry each (a frame is one Write, so each is a reply); the bytes
// of consecutive Reads are summed, since how the kernel slices an
// arriving request is timing, not content.
type frameTap struct {
	net.Listener
	mu  sync.Mutex
	seq []frameShape
}

type frameShape struct {
	Out   bool // storage → agent
	Bytes int
}

type frameTapConn struct {
	net.Conn
	tap *frameTap
}

func (l *frameTap) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &frameTapConn{Conn: conn, tap: l}, nil
}

func (c *frameTapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tap.mu.Lock()
	if s := c.tap.seq; len(s) > 0 && !s[len(s)-1].Out {
		s[len(s)-1].Bytes += n
	} else if n > 0 {
		c.tap.seq = append(s, frameShape{Bytes: n})
	}
	c.tap.mu.Unlock()
	return n, err
}

func (c *frameTapConn) Write(p []byte) (int, error) {
	c.tap.mu.Lock()
	c.tap.seq = append(c.tap.seq, frameShape{Out: true, Bytes: len(p)})
	c.tap.mu.Unlock()
	return c.Conn.Write(p)
}

// cut returns what was observed since the last cut.
func (l *frameTap) cut() []frameShape {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.seq
	l.seq = nil
	return s
}

// TestRunFrameShapeEqualsBurst is TestRunCallShapeEqualsBurst for the
// observer on the wire between agent and storage: on a Mount over
// DialStorage, a 64-block WriteAt that emitted m stream elements and an
// idle DummyUpdateBurst(m), started at the same offset into a ring
// slot, put the same sequence of (direction, bytes) on the storage
// connection. With one Write per frame and the batch as the unit of the
// data path, that sequence is a function of the call shape alone — three
// round trips whose sizes follow from m — so frame sizes and their
// order tell a real run from cover traffic no better than addresses do.
func TestRunFrameShapeEqualsBurst(t *testing.T) {
	ctx := context.Background()
	const bs = 512
	const k = bs / journal.CellSize
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &frameTap{Listener: inner}
	srv := wire.NewStorageServer(tap, steghide.NewMemDevice(bs, 4096), nil)
	defer srv.Close()
	dev, err := steghide.DialStorage(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	stack, err := steghide.Mount(dev,
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("frames"), KDFIterations: 4}),
		steghide.WithJournal("admin-pass"),
		steghide.WithSeed([]byte("frames-agent")))
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close() //nolint:errcheck // test teardown; closes dev
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
	before := agent.Stats()
	tap.cut()
	if _, err := h.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	run := tap.cut()
	after := agent.Stats()
	m := (after.DataUpdates - before.DataUpdates) + (after.Camouflage - before.Camouflage)
	if after.DataUpdates-before.DataUpdates != blocks || m < blocks {
		t.Fatalf("a %d-block write emitted %d stream elements: %+v", blocks, m, after)
	}
	// Pad to the run's starting offset in its ring slot, as the
	// call-shape test does: the offset is a count the observer has.
	if pad := (k - int(m%k)) % k; pad > 0 {
		if issued, err := agent.DummyUpdateBurst(pad); err != nil || issued != pad {
			t.Fatalf("padding burst issued %d of %d: %v", issued, pad, err)
		}
	}
	tap.cut()
	if issued, err := agent.DummyUpdateBurst(int(m)); err != nil || uint64(issued) != m {
		t.Fatalf("burst issued %d of %d: %v", issued, m, err)
	}
	burst := tap.cut()

	// Ring write, scattered read of m blocks, scattered write of m
	// blocks: a request and a reply each, 16-byte headers.
	ring := run[0].Bytes - 16 - 16
	want := []frameShape{
		{false, run[0].Bytes}, {true, 16},
		{false, 16 + 8 + 8*int(m)}, {true, 16 + int(m)*bs},
		{false, 16 + 8 + int(m)*(8+bs)}, {true, 16},
	}
	if len(run) != len(want) || ring%bs != 0 || ring/bs < int(m+k-1)/k || ring/bs > int(m+k-1)/k+1 {
		t.Fatalf("64-block WriteAt (%d elements) put %+v on the storage wire", m, run)
	}
	if !slices.Equal(run, want) {
		t.Errorf("64-block WriteAt (%d elements) put %+v on the storage wire, want %+v", m, run, want)
	}
	if !slices.Equal(burst, run) {
		t.Errorf("burst of %d put %+v on the storage wire, the run put %+v", m, burst, run)
	}
}

// stagedCloseVsBurst is the write-behind row of the run-vs-burst
// battery, for whichever observer cut reads: sixteen scattered whole-
// block WriteAts through a handle, then the Close that issues them as m
// stream elements and saves the map; then, from the same offset into a
// ring slot, an idle DummyUpdateBurst(m) followed by a save of the same
// map with nothing to issue. It returns what the observer saw of the
// staged writes (which must be nothing), of the Close, and of burst and
// save together — the last two must be equal, since a Close is its flush
// and then its save.
func stagedCloseVsBurst[T any](t *testing.T, stack *steghide.Stack, k int, cut func() []T) (staged, closed, burstAndSave []T, m uint64) {
	t.Helper()
	ctx := context.Background()
	fs, err := stack.Login("u", "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateDummy(ctx, "/cover", 1024); err != nil {
		t.Fatal(err)
	}
	ps := stack.Volume().PayloadSize()
	// One byte short of 64 blocks, so the size can move without the map.
	size := 64*ps - 1
	if err := steghide.WriteFile(ctx, fs, "/f", make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	h, err := fs.OpenWrite(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	agent := stack.Agent2()
	before := agent.Stats()
	cut()
	block := bytes.Repeat([]byte{0x5a}, ps)
	const writes = 16
	for i := 0; i < writes; i++ {
		if _, err := h.WriteAt(block, int64((i*29%63)*ps)); err != nil {
			t.Fatal(err)
		}
	}
	staged = cut()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	closed = cut()
	after := agent.Stats()
	m = (after.DataUpdates - before.DataUpdates) + (after.Camouflage - before.Camouflage)
	if after.DataUpdates-before.DataUpdates != writes || m < writes {
		t.Fatalf("closing over %d staged blocks emitted %d stream elements: %+v", writes, m, after)
	}
	// The Close put m cells in the ring and its save three — the fresh
	// pointer block's allocation, the superseded one's free, the save;
	// pad to the offset its run started at.
	if pad := (k - int((m+3)%uint64(k))) % k; pad > 0 {
		if issued, err := agent.DummyUpdateBurst(pad); err != nil || issued != pad {
			t.Fatalf("padding burst issued %d of %d: %v", issued, pad, err)
		}
	}
	cut()
	if issued, err := agent.DummyUpdateBurst(int(m)); err != nil || uint64(issued) != m {
		t.Fatalf("burst issued %d of %d: %v", issued, m, err)
	}
	if err := fs.Truncate(ctx, "/f", uint64(size+1)); err != nil { // dirties the map, touches no block
		t.Fatal(err)
	}
	if err := fs.Save(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	return staged, closed, cut(), m
}

// TestStagedCloseCallShapeEqualsBurst extends TestRunCallShapeEqualsBurst
// to write-behind on the device tap: the staged WriteAts are silent, and
// the Close that issues them reduces to the skeleton of the idle burst
// of as many stream elements followed by a save. Interleaved with reads
// through a second handle, staged writes still add nothing: a trace of
// staging and reading holds reads only.
func TestStagedCloseCallShapeEqualsBurst(t *testing.T) {
	tap := &steghide.Collector{}
	const bs = 512
	stack, err := steghide.Mount(steghide.NewMemDevice(bs, 4096),
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("staged-shape"), KDFIterations: 4}),
		steghide.WithJournal("admin-pass"),
		steghide.WithTrace(tap),
		steghide.WithSeed([]byte("staged-shape-agent")))
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close() //nolint:errcheck // test teardown
	cut := func() []blockdev.Event {
		ev := tap.Events()
		tap.Reset()
		return ev
	}
	staged, closed, burstAndSave, m := stagedCloseVsBurst(t, stack, bs/journal.CellSize, cut)
	if len(staged) != 0 {
		t.Fatalf("staged WriteAts reached the device: %+v", staged)
	}
	first := stack.Volume().FirstDataBlock()
	run, idle := attack.CallShape(closed, first), attack.CallShape(burstAndSave, first)
	// The run's m reads and m writes, then the save: its intents in the
	// ring before the pointer block and header it writes.
	if len(run) < 5 || !run[0].Ring || run[1] != (attack.Shape{Op: blockdev.OpRead, Blocks: m}) ||
		run[2] != (attack.Shape{Op: blockdev.OpWrite, Blocks: m}) || !run[3].Ring || run[4] != (attack.Shape{Op: blockdev.OpWrite, Blocks: 2}) {
		t.Fatalf("close over 16 staged blocks (%d elements) has shape %+v", m, run)
	}
	if !slices.Equal(run, idle) {
		t.Errorf("close (%d elements) has shape %+v, burst then save %+v", m, run, idle)
	}

	// Reads never write, and staged writes stay silent between them.
	ctx := context.Background()
	fs, err := stack.Login("v", "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateDummy(ctx, "/cover-v", 256); err != nil {
		t.Fatal(err)
	}
	ps := stack.Volume().PayloadSize()
	if err := steghide.WriteFile(ctx, fs, "/g", make([]byte, 32*ps)); err != nil {
		t.Fatal(err)
	}
	w, err := fs.OpenWrite(ctx, "/g")
	if err != nil {
		t.Fatal(err)
	}
	r, err := fs.OpenRead(ctx, "/g")
	if err != nil {
		t.Fatal(err)
	}
	tap.Reset()
	buf := make([]byte, 3*ps)
	for i := 0; i < 24; i++ {
		if _, err := w.WriteAt(buf[:ps/2+i], int64(i*ps+i)); err != nil { // partial blocks: each reads once
			t.Fatal(err)
		}
		if _, err := r.ReadAt(buf, int64((i*7%29)*ps)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range cut() {
		if e.Op != blockdev.OpRead {
			t.Fatalf("staging and reading wrote to the device: %+v", e)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStagedCloseFrameShapeEqualsBurst is the same row for the observer
// on the storage wire: no frame while the writes are staged, and a Close
// whose frames are those of the idle burst followed by a save.
func TestStagedCloseFrameShapeEqualsBurst(t *testing.T) {
	const bs = 512
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &frameTap{Listener: inner}
	srv := wire.NewStorageServer(tap, steghide.NewMemDevice(bs, 4096), nil)
	defer srv.Close()
	dev, err := steghide.DialStorage(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	stack, err := steghide.Mount(dev,
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("staged-frames"), KDFIterations: 4}),
		steghide.WithJournal("admin-pass"),
		steghide.WithSeed([]byte("staged-frames-agent")))
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close() //nolint:errcheck // test teardown; closes dev
	staged, closed, burstAndSave, m := stagedCloseVsBurst(t, stack, bs/journal.CellSize, tap.cut)
	if len(staged) != 0 {
		t.Fatalf("staged WriteAts put %+v on the storage wire", staged)
	}
	// The flush is three round trips whose sizes follow from m, as in
	// TestRunFrameShapeEqualsBurst; the save's follow.
	flush := []frameShape{
		{false, closed[0].Bytes}, {true, 16},
		{false, 16 + 8 + 8*int(m)}, {true, 16 + int(m)*bs},
		{false, 16 + 8 + int(m)*(8+bs)}, {true, 16},
	}
	if len(closed) <= len(flush) || !slices.Equal(closed[:len(flush)], flush) {
		t.Fatalf("close over 16 staged blocks (%d elements) put %+v on the storage wire, want it to begin %+v", m, closed, flush)
	}
	if !slices.Equal(closed, burstAndSave) {
		t.Errorf("close (%d elements) put %+v on the storage wire, burst then save put %+v", m, closed, burstAndSave)
	}
}
