package steghide_test

import (
	"context"
	"sync/atomic"
	"testing"

	"steghide"
)

// callCounter is a device that counts what the write path asks of it, as
// calls and as blocks, the journal ring apart.
type callCounter struct {
	steghide.BatchDevice
	ringEnd uint64 // ring is [1, ringEnd)

	readCalls, writeCalls, blocksRead, ringBlocks atomic.Uint64
}

func (d *callCounter) wrote(first uint64, n int) {
	d.writeCalls.Add(1)
	if first < d.ringEnd {
		d.ringBlocks.Add(uint64(n))
	}
}

func (d *callCounter) ReadBlock(i uint64, buf []byte) error {
	d.readCalls.Add(1)
	d.blocksRead.Add(1)
	return d.BatchDevice.ReadBlock(i, buf)
}

func (d *callCounter) WriteBlock(i uint64, data []byte) error {
	d.wrote(i, 1)
	return d.BatchDevice.WriteBlock(i, data)
}

func (d *callCounter) ReadBlocks(start uint64, bufs [][]byte) error {
	d.readCalls.Add(1)
	d.blocksRead.Add(uint64(len(bufs)))
	return d.BatchDevice.ReadBlocks(start, bufs)
}

func (d *callCounter) WriteBlocks(start uint64, data [][]byte) error {
	d.wrote(start, len(data))
	return d.BatchDevice.WriteBlocks(start, data)
}

func (d *callCounter) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	d.readCalls.Add(1)
	d.blocksRead.Add(uint64(len(idx)))
	return d.BatchDevice.ReadBlocksAt(idx, bufs)
}

func (d *callCounter) WriteBlocksAt(idx []uint64, data [][]byte) error {
	d.wrote(idx[0], len(idx)) // a scattered batch is all ring or all steg space
	return d.BatchDevice.WriteBlocksAt(idx, data)
}

// writeCost is what one stretch of file operations cost, layer by layer.
type writeCost struct {
	runs       uint64 // scheduler UpdateRun calls
	updates    uint64 // Figure-6 data updates
	elements   uint64 // stream elements: data updates + camouflage, one block read each
	readCalls  uint64
	writeCalls uint64
	blocksRead uint64
	ringBlocks uint64
}

// rmwReads is the blocks read to patch a partial block: every read that
// was not a stream element's.
func (c writeCost) rmwReads() uint64 { return c.blocksRead - c.elements }

// TestWriteBudget pins what a file write costs, in counts — ROADMAP item
// 13's "first count it", for the write half. The unit of every layer
// below the facade is the run, whatever size the caller's writes were:
//
//	(a) WriteFile of 256 KiB over an existing file: one run — the 64
//	    whole blocks sealed from the caller's buffer and the partial
//	    tail riding with them — one read-modify-write read, then the
//	    save.
//	(b) OpenWrite + 16 scattered single-block WriteAt + Close: no device
//	    call before Close; then one run of 16 in at most 2 ring blocks
//	    and 3 device calls, then the save.
//	(c) 100 appends of 100 bytes + Close: one read-modify-write read and
//	    one data update per block touched, not per append.
//
// A save here is one header write and its one ring record: 2 calls.
func TestWriteBudget(t *testing.T) {
	ctx := context.Background()
	const bs = 4096
	reg := steghide.NewMetrics()
	dev := &callCounter{BatchDevice: steghide.NewMemDevice(bs, 4096)}
	stack, err := steghide.Mount(dev,
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("budget"), KDFIterations: 4}),
		steghide.WithJournal("admin-pass"),
		steghide.WithMetrics(reg),
		steghide.WithSeed([]byte("budget-agent")))
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close() //nolint:errcheck // test teardown
	dev.ringEnd = stack.Volume().FirstDataBlock()
	fs, err := stack.Login("u", "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateDummy(ctx, "/cover", 1024); err != nil {
		t.Fatal(err)
	}
	agent := stack.Agent2()
	runs := func() uint64 {
		for _, v := range reg.Snapshot() {
			if v.Name == "steghide_sched_update_seconds" {
				return v.Hist.Count
			}
		}
		t.Fatal("no steghide_sched_update_seconds series")
		return 0
	}
	// measure runs op and returns what it cost.
	measure := func(op func()) writeCost {
		t.Helper()
		s0, r0 := agent.Stats(), runs()
		rc, wc, br, rb := dev.readCalls.Load(), dev.writeCalls.Load(), dev.blocksRead.Load(), dev.ringBlocks.Load()
		op()
		s1 := agent.Stats()
		c := writeCost{
			runs:       runs() - r0,
			updates:    s1.DataUpdates - s0.DataUpdates,
			readCalls:  dev.readCalls.Load() - rc,
			writeCalls: dev.writeCalls.Load() - wc,
			blocksRead: dev.blocksRead.Load() - br,
			ringBlocks: dev.ringBlocks.Load() - rb,
		}
		c.elements = c.updates + (s1.Camouflage - s0.Camouflage)
		return c
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// ringFor bounds the ring blocks a run of m elements and extra
	// single records may write: a batch of m cells spans ⌈m/64⌉ slots,
	// one more when it straddles a slot edge.
	const cells = bs / 64
	ringFor := func(m, extra uint64) uint64 { return (m+cells-1)/cells + 1 + extra }
	const saveCalls = 2 // header block, save record

	ps := stack.Volume().PayloadSize()
	data := make([]byte, 256<<10)
	must(steghide.WriteFile(ctx, fs, "/f", data)) // the file exists from here on
	whole := uint64(len(data) / ps)

	// (a)
	a := measure(func() { must(steghide.WriteFile(ctx, fs, "/f", data)) })
	t.Logf("(a) WriteFile 256 KiB: %+v", a)
	if a.runs != 1 || a.updates != whole+1 {
		t.Errorf("(a) %d runs and %d data updates, want 1 run of %d blocks", a.runs, a.updates, whole+1)
	}
	if a.rmwReads() != 1 || a.readCalls != 2 {
		t.Errorf("(a) %d read-modify-write reads in %d read calls, want the tail's 1 and the run's 1", a.rmwReads(), a.readCalls)
	}
	if a.writeCalls != 2+saveCalls || a.ringBlocks > ringFor(a.elements, 1) {
		t.Errorf("(a) %d write calls, %d ring blocks for %d elements; want %d calls (ring, run, save) and at most %d ring blocks",
			a.writeCalls, a.ringBlocks, a.elements, 2+saveCalls, ringFor(a.elements, 1))
	}

	// (b)
	h, err := fs.OpenWrite(ctx, "/f")
	must(err)
	staged := measure(func() {
		for i := 0; i < 16; i++ {
			_, err := h.WriteAt(data[:ps], int64((i*23%int(whole))*ps))
			must(err)
		}
	})
	if staged != (writeCost{}) {
		t.Errorf("(b) 16 single-block WriteAts cost %+v before Close, want nothing", staged)
	}
	b := measure(func() { must(h.Close()) })
	t.Logf("(b) Close over 16 staged blocks: %+v", b)
	if b.runs != 1 || b.updates != 16 || b.rmwReads() != 0 {
		t.Errorf("(b) %d runs, %d data updates, %d read-modify-write reads; want 1, 16, 0", b.runs, b.updates, b.rmwReads())
	}
	if run := b.ringBlocks - 1; run > 2 || b.readCalls != 1 || b.writeCalls != 2+saveCalls {
		t.Errorf("(b) run in %d ring blocks, %d read calls, %d write calls; want ≤ 2, 1, %d", run, b.readCalls, b.writeCalls, 2+saveCalls)
	}

	// (c)
	must(fs.Create(ctx, "/log"))
	h, err = fs.OpenWrite(ctx, "/log")
	must(err)
	const appends, line = 100, 100
	touched := uint64((appends*line + ps - 1) / ps)
	c := measure(func() {
		for i := 0; i < appends; i++ {
			_, err := h.WriteAt(data[:line], int64(i*line))
			must(err)
		}
	})
	t.Logf("(c) 100 appends of 100 bytes: %+v", c)
	if c.runs != 0 || c.updates != 0 || c.rmwReads() != touched || c.readCalls != touched {
		t.Errorf("(c) appends made %d runs, %d updates, %d reads in %d calls; want 0, 0 and one read per touched block (%d)",
			c.runs, c.updates, c.rmwReads(), c.readCalls, touched)
	}
	// Growth is the allocator's: per new block one allocation record and
	// the zero block that materializes it.
	if c.writeCalls != 2*touched {
		t.Errorf("(c) appends made %d write calls, want %d (growth of %d blocks)", c.writeCalls, 2*touched, touched)
	}
	cc := measure(func() { must(h.Close()) })
	t.Logf("(c) Close: %+v", cc)
	if cc.runs != 1 || cc.updates != touched || cc.rmwReads() != 0 {
		t.Errorf("(c) close made %d runs, %d data updates, %d more reads; want 1, %d, 0", cc.runs, cc.updates, cc.rmwReads(), touched)
	}
	if cc.readCalls != 1 || cc.writeCalls != 2+saveCalls {
		t.Errorf("(c) close made %d read and %d write calls, want 1 and %d", cc.readCalls, cc.writeCalls, 2+saveCalls)
	}
}
