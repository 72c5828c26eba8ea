package blockdev

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"steghide/internal/diskmodel"
	"steghide/internal/prng"
)

// deviceContract exercises the Device interface invariants common to
// all implementations.
func deviceContract(t *testing.T, d Device) {
	t.Helper()
	bs := d.BlockSize()
	n := d.NumBlocks()
	rng := prng.NewFromUint64(1)

	// Write then read several blocks, including the boundaries.
	idxs := []uint64{0, 1, n / 2, n - 1}
	written := map[uint64][]byte{}
	for _, i := range idxs {
		data := rng.Bytes(bs)
		if err := WriteBlock(d, i, data); err != nil {
			t.Fatalf("WriteBlock(%d): %v", i, err)
		}
		written[i] = data
	}
	buf := make([]byte, bs)
	for _, i := range idxs {
		if err := ReadBlock(d, i, buf); err != nil {
			t.Fatalf("ReadBlock(%d): %v", i, err)
		}
		if !bytes.Equal(buf, written[i]) {
			t.Fatalf("block %d corrupted", i)
		}
	}

	// Out-of-range and wrong-size arguments must fail cleanly.
	if err := ReadBlock(d, n, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read out of range: %v", err)
	}
	if err := WriteBlock(d, n, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write out of range: %v", err)
	}
	if err := ReadBlock(d, 0, buf[:bs-1]); !errors.Is(err, ErrBufSize) {
		t.Fatalf("short read buf: %v", err)
	}
	if err := WriteBlock(d, 0, append(buf, 0)); !errors.Is(err, ErrBufSize) {
		t.Fatalf("long write buf: %v", err)
	}
}

func TestMemContract(t *testing.T) {
	deviceContract(t, NewMem(512, 64))
}

func TestFileContract(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	d, err := CreateFile(path, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	deviceContract(t, d)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestFileReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	d, err := CreateFile(path, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.NewFromUint64(2)
	want := rng.Bytes(256)
	if err := WriteBlock(d, 7, want); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumBlocks() != 16 {
		t.Fatalf("NumBlocks = %d, want 16", re.NumBlocks())
	}
	got := make([]byte, 256)
	if err := ReadBlock(re, 7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data lost across reopen")
	}
}

func TestOpenFileRejectsBadGeometry(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenFile(filepath.Join(dir, "missing"), 512); err == nil {
		t.Fatal("missing file accepted")
	}
	path := filepath.Join(dir, "odd.img")
	d, err := CreateFile(path, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := OpenFile(path, 512); err == nil {
		t.Fatal("misaligned size accepted")
	}
	if _, err := OpenFile(path, 0); err == nil {
		t.Fatal("zero block size accepted")
	}
	if _, err := CreateFile(filepath.Join(dir, "zero"), 0, 4); err == nil {
		t.Fatal("CreateFile with zero block size accepted")
	}
}

func TestMemSnapshotIsolated(t *testing.T) {
	m := NewMem(64, 4)
	rng := prng.NewFromUint64(3)
	m.WriteBlock(1, rng.Bytes(64))
	snap := m.Snapshot()
	m.WriteBlock(1, rng.Bytes(64))
	snap2 := m.Snapshot()
	if bytes.Equal(snap, snap2) {
		t.Fatal("snapshots should differ after write")
	}
	if len(snap) != 64*4 {
		t.Fatalf("snapshot length %d", len(snap))
	}
}

func TestSimChargesTime(t *testing.T) {
	base := NewMem(4096, 1024)
	disk := diskmodel.MustNew(diskmodel.Params2004(1024, 4096))
	sim := NewSim(base, disk)
	buf := make([]byte, 4096)
	if err := ReadBlock(sim, 500, buf); err != nil {
		t.Fatal(err)
	}
	if sim.Disk().Now() == 0 {
		t.Fatal("read charged no time")
	}
	before := sim.Disk().Now()
	if err := WriteBlock(sim, 501, buf); err != nil {
		t.Fatal(err)
	}
	if sim.Disk().Now() <= before {
		t.Fatal("write charged no time")
	}
	st := sim.Disk().Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Failed accesses must not advance the clock.
	begin := sim.Disk().Now()
	if err := ReadBlock(sim, 99999, buf); err == nil {
		t.Fatal("expected error")
	}
	if sim.Disk().Now() != begin {
		t.Fatal("failed access charged time")
	}
}

func TestNewSimGeometryMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSim(NewMem(4096, 10), diskmodel.MustNew(diskmodel.Params2004(20, 4096)))
}

func TestTracedPublishesEvents(t *testing.T) {
	var col Collector
	d := NewTraced(NewMem(128, 8), &col)
	buf := make([]byte, 128)
	WriteBlock(d, 3, buf)
	ReadBlock(d, 3, buf)
	ReadBlock(d, 5, buf)
	events := col.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events", len(events))
	}
	want := []Event{{Seq: 1, Op: OpWrite, Block: 3}, {Seq: 2, Op: OpRead, Block: 3}, {Seq: 3, Op: OpRead, Block: 5}}
	for i, e := range events {
		if e != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
	// Failed accesses are not observable I/O and must not be traced.
	if err := ReadBlock(d, 100, buf); err == nil {
		t.Fatal("expected error")
	}
	if col.Len() != 3 {
		t.Fatal("failed access was traced")
	}
	col.Reset()
	if col.Len() != 0 {
		t.Fatal("reset failed")
	}
}

func TestCounterAndMultiTracer(t *testing.T) {
	var cnt Counter
	var col Collector
	d := NewTraced(NewMem(128, 8), MultiTracer{&cnt, &col})
	buf := make([]byte, 128)
	for i := 0; i < 5; i++ {
		ReadBlock(d, uint64(i), buf)
	}
	WriteBlock(d, 0, buf)
	if cnt.Reads() != 5 || cnt.Writes() != 1 || cnt.Total() != 6 {
		t.Fatalf("counter %d/%d", cnt.Reads(), cnt.Writes())
	}
	if col.Len() != 6 {
		t.Fatalf("collector %d", col.Len())
	}
	cnt.Reset()
	if cnt.Total() != 0 {
		t.Fatal("counter reset failed")
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("Op.String broken")
	}
}

func TestMemConcurrentAccess(t *testing.T) {
	// Race-detector workout: concurrent disjoint writers + readers.
	m := NewMem(64, 256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := prng.NewFromUint64(uint64(w))
			buf := make([]byte, 64)
			for i := 0; i < 200; i++ {
				idx := uint64(w*32 + i%32)
				if i%2 == 0 {
					m.WriteBlock(idx, rng.Bytes(64))
				} else {
					m.ReadBlock(idx, buf)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMemStripesKeepBlocksWhole: batches that cross every stripe, in
// both directions and scattered, against overlapping batch writers and
// snapshots. Each writer fills whole blocks with one byte value, so a
// block that ever reads back mixed was copied without its stripe's
// lock; geometries smaller and larger than the stripe count, and one
// the stripe count does not divide, all map every block to a stripe.
func TestMemStripesKeepBlocksWhole(t *testing.T) {
	for _, n := range []uint64{1, 5, memStripes, 3*memStripes + 7} {
		m := NewMem(64, n)
		whole := func(where string, blk []byte) {
			if bytes.Count(blk, blk[:1]) != len(blk) {
				t.Errorf("%d blocks: %s returned a torn block", n, where)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := prng.NewFromUint64(uint64(w))
				bufs := AllocBlocks(int(n), 64)
				idx := make([]uint64, n)
				for round := 0; round < 50; round++ {
					for i := range bufs {
						idx[i] = uint64(i)
						for j := range bufs[i] {
							bufs[i][j] = byte(w*50 + round)
						}
					}
					rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
					switch round % 4 {
					case 0:
						m.WriteBlocks(0, bufs) //nolint:errcheck // geometry is the test's own
					case 1:
						m.WriteBlocksAt(idx, bufs) //nolint:errcheck // geometry is the test's own
					case 2:
						m.ReadBlocks(0, bufs) //nolint:errcheck // geometry is the test's own
						for _, b := range bufs {
							whole("ReadBlocks", b)
						}
					default:
						m.ReadBlocksAt(idx, bufs) //nolint:errcheck // geometry is the test's own
						for _, b := range bufs {
							whole("ReadBlocksAt", b)
						}
					}
					if round%8 == 7 {
						snap := m.Snapshot()
						for off := 0; off < len(snap); off += 64 {
							whole("Snapshot", snap[off:off+64])
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

func TestQuickMemRoundTrip(t *testing.T) {
	m := NewMem(32, 128)
	f := func(seed uint64, idxRaw uint16) bool {
		idx := uint64(idxRaw) % m.NumBlocks()
		data := prng.NewFromUint64(seed).Bytes(32)
		if err := m.WriteBlock(idx, data); err != nil {
			return false
		}
		got := make([]byte, 32)
		if err := m.ReadBlock(idx, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
