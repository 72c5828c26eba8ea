package blockdev

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"steghide/internal/diskmodel"
)

// loopOnly hides a device's batch fast path, forcing the helpers onto
// their per-block fallback.
type loopOnly struct{ Device }

func fillPattern(bufs [][]byte, seed byte) {
	for i, b := range bufs {
		for j := range b {
			b[j] = seed + byte(i) + byte(j)*3
		}
	}
}

// TestBatchHelpersMatchLoop verifies the fast paths and the loop
// fallback produce identical device contents and identical reads.
func TestBatchHelpersMatchLoop(t *testing.T) {
	const bs, n = 64, 32
	fast := NewMem(bs, n)
	slow := NewMem(bs, n)

	data := AllocBlocks(8, bs)
	fillPattern(data, 7)
	if err := WriteBlocks(fast, 5, data); err != nil {
		t.Fatal(err)
	}
	if err := WriteBlocks(loopOnly{slow}, 5, data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast.Snapshot(), slow.Snapshot()) {
		t.Fatal("batched and looped writes diverge")
	}

	idx := []uint64{30, 2, 17, 25, 9}
	scattered := AllocBlocks(len(idx), bs)
	fillPattern(scattered, 101)
	if err := WriteBlocksAt(fast, idx, scattered); err != nil {
		t.Fatal(err)
	}
	if err := WriteBlocksAt(loopOnly{slow}, idx, scattered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast.Snapshot(), slow.Snapshot()) {
		t.Fatal("batched and looped scattered writes diverge")
	}

	got1 := AllocBlocks(8, bs)
	got2 := AllocBlocks(8, bs)
	if err := ReadBlocks(fast, 5, got1); err != nil {
		t.Fatal(err)
	}
	if err := ReadBlocks(loopOnly{fast}, 5, got2); err != nil {
		t.Fatal(err)
	}
	for i := range got1 {
		if !bytes.Equal(got1[i], got2[i]) {
			t.Fatalf("read %d diverges", i)
		}
	}
	sg1 := AllocBlocks(len(idx), bs)
	if err := ReadBlocksAt(fast, idx, sg1); err != nil {
		t.Fatal(err)
	}
	for i := range sg1 {
		if !bytes.Equal(sg1[i], scattered[i]) {
			t.Fatalf("scattered read %d diverges", i)
		}
	}
}

// batchDevices builds one instance of every device type in the package
// over the same geometry (nb blocks of bs bytes), plus loopOnly for the
// helpers' per-block fallback.
func batchDevices(t *testing.T, bs int, nb uint64) map[string]Device {
	t.Helper()
	dir := t.TempDir()
	file := func(name string, n uint64) *File {
		f, err := CreateFile(filepath.Join(dir, name), bs, n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	sub, err := NewSub(NewMem(bs, nb+7), 5, nb)
	if err != nil {
		t.Fatal(err)
	}
	stripedMem, err := NewStriped(NewMem(bs, nb/3), NewMem(bs, nb/3), NewMem(bs, nb/3))
	if err != nil {
		t.Fatal(err)
	}
	stripedFile, err := NewStriped(file("m0", nb/3), file("m1", nb/3), file("m2", nb/3))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Device{
		"Mem":          NewMem(bs, nb),
		"File":         file("vol", nb),
		"SubDevice":    sub,
		"Striped/Mem":  stripedMem,
		"Striped/File": stripedFile,
		"Traced":       NewTraced(NewMem(bs, nb), &Collector{}),
		"Sim":          NewSim(NewMem(bs, nb), diskmodel.MustNew(diskmodel.Params2004(nb, bs))),
		"FaultDevice":  NewFault(NewMem(bs, nb)),
		"loopOnly":     loopOnly{NewMem(bs, nb)},
	}
}

// readAll returns the device's contents through its per-block path.
func readAll(t *testing.T, d Device) []byte {
	t.Helper()
	bs := d.BlockSize()
	out := make([]byte, int(d.NumBlocks())*bs)
	for i := uint64(0); i < d.NumBlocks(); i++ {
		if err := d.ReadBlock(i, out[int(i)*bs:int(i+1)*bs]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestBatchValidation holds the batch contract on every device: a
// malformed batch returns its sentinel with nothing transferred, an
// empty batch is a no-op, and well-formed batches match a per-block
// loop.
func TestBatchValidation(t *testing.T) {
	const bs, nb = 512, 24
	for name, d := range batchDevices(t, bs, nb) {
		t.Run(name, func(t *testing.T) {
			data := AllocBlocks(4, bs)
			fillPattern(data, 1)
			if err := WriteBlocks(d, 0, data); err != nil {
				t.Fatal(err)
			}
			before := readAll(t, d)
			short := [][]byte{make([]byte, bs), make([]byte, bs-1)}
			for _, c := range []struct {
				what string
				err  error
				want error
			}{
				{"contiguous overrun", WriteBlocks(d, nb-2, data), ErrOutOfRange},
				{"contiguous overrun read", ReadBlocks(d, nb-2, data), ErrOutOfRange},
				{"start overflow", WriteBlocks(d, math.MaxUint64, data[:2]), ErrOutOfRange},
				{"scattered out of range", WriteBlocksAt(d, []uint64{1, nb, 2}, data[:3]), ErrOutOfRange},
				{"scattered out of range read", ReadBlocksAt(d, []uint64{3, 2, nb + 9}, data[:3]), ErrOutOfRange},
				{"short buffer", WriteBlocks(d, 0, short), ErrBufSize},
				{"short buffer scattered", WriteBlocksAt(d, []uint64{6, 7}, short), ErrBufSize},
				{"nil index set", ReadBlocksAt(d, nil, data), ErrBatchShape},
				{"shape mismatch", WriteBlocksAt(d, []uint64{1, 2}, data[:1]), ErrBatchShape},
				{"empty contiguous", ReadBlocks(d, 0, nil), nil},
				{"empty contiguous write", WriteBlocks(d, nb+100, nil), nil},
				{"empty scattered", ReadBlocksAt(d, nil, nil), nil},
				{"empty scattered write", WriteBlocksAt(d, []uint64{}, [][]byte{}), nil},
			} {
				if !errors.Is(c.err, c.want) || (c.want == nil) != (c.err == nil) {
					t.Errorf("%s: got %v, want %v", c.what, c.err, c.want)
				}
			}
			if !bytes.Equal(readAll(t, d), before) {
				t.Fatal("a refused or empty batch changed the device")
			}

			// Well-formed batches against a per-block loop on a reference.
			ref := NewMem(bs, nb)
			if err := WriteBlocks(ref, 0, data); err != nil {
				t.Fatal(err)
			}
			run := AllocBlocks(9, bs)
			fillPattern(run, 40)
			idx := []uint64{20, 3, 11, 12, 0, 23}
			scattered := AllocBlocks(len(idx), bs)
			fillPattern(scattered, 90)
			if err := WriteBlocks(d, 7, run); err != nil {
				t.Fatal(err)
			}
			if err := WriteBlocksAt(d, idx, scattered); err != nil {
				t.Fatal(err)
			}
			for k, b := range run {
				ref.WriteBlock(7+uint64(k), b) //nolint:errcheck // in range
			}
			for k, b := range scattered {
				ref.WriteBlock(idx[k], b) //nolint:errcheck // in range
			}
			if !bytes.Equal(readAll(t, d), ref.Snapshot()) {
				t.Fatal("batched writes diverge from the per-block loop")
			}
			got := AllocBlocks(9, bs)
			if err := ReadBlocks(d, 7, got); err != nil {
				t.Fatal(err)
			}
			gotAt := AllocBlocks(len(idx), bs)
			if err := ReadBlocksAt(d, idx, gotAt); err != nil {
				t.Fatal(err)
			}
			one := make([]byte, bs)
			for k, b := range got {
				ref.ReadBlock(7+uint64(k), one) //nolint:errcheck // in range
				if !bytes.Equal(b, one) {
					t.Fatalf("contiguous read %d diverges", k)
				}
			}
			for k, b := range gotAt {
				ref.ReadBlock(idx[k], one) //nolint:errcheck // in range
				if !bytes.Equal(b, one) {
					t.Fatalf("scattered read %d (block %d) diverges", k, idx[k])
				}
			}
		})
	}
}

// TestSubDeviceBatchBounds verifies out-of-range batches on a
// SubDevice fail in the sub's own address space and never leak into
// the parent's surrounding blocks.
func TestSubDeviceBatchBounds(t *testing.T) {
	const bs = 64
	parent := NewMem(bs, 20)
	before := parent.Snapshot()
	sub, err := NewSub(parent, 5, 8)
	if err != nil {
		t.Fatal(err)
	}

	data := AllocBlocks(4, bs)
	fillPattern(data, 1)
	// Contiguous: [6, 10) exceeds the 8-block window.
	if err := WriteBlocks(sub, 6, data); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	// Scattered: index 8 is one past the window even though parent
	// block 13 exists.
	if err := WriteBlocksAt(sub, []uint64{0, 8, 2, 3}, data); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if err := ReadBlocksAt(sub, []uint64{7, 8}, data[:2]); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if !bytes.Equal(parent.Snapshot(), before) {
		t.Fatal("failed batch mutated the parent")
	}

	// An in-range batch lands at the right parent offset.
	if err := WriteBlocks(sub, 4, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, bs)
	if err := parent.ReadBlock(5+4, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[0]) {
		t.Fatal("sub batch landed at wrong parent block")
	}
}

// TestStripedBatchSpansBoundaries verifies a contiguous batch that
// wraps several times around the stripe is ordered correctly and each
// member receives exactly its residue class.
func TestStripedBatchSpansBoundaries(t *testing.T) {
	const bs = 32
	members := []*Mem{NewMem(bs, 8), NewMem(bs, 8), NewMem(bs, 8)}
	s, err := NewStriped(members[0], members[1], members[2])
	if err != nil {
		t.Fatal(err)
	}

	// Batch [4, 17): 13 blocks crossing the stripe 5 times.
	const start, count = 4, 13
	data := AllocBlocks(count, bs)
	fillPattern(data, 9)
	if err := WriteBlocks(s, start, data); err != nil {
		t.Fatal(err)
	}

	// Per-block readback through the striped view.
	one := make([]byte, bs)
	for i := 0; i < count; i++ {
		if err := s.ReadBlock(start+uint64(i), one); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one, data[i]) {
			t.Fatalf("block %d misordered after striped batch", start+i)
		}
	}
	// Per-member distribution: volume block i must sit on member i%3
	// at local index i/3, and only the batch's blocks may be non-zero.
	zero := make([]byte, bs)
	for v := uint64(0); v < s.NumBlocks(); v++ {
		m, local := s.Locate(v)
		if err := members[m].ReadBlock(local, one); err != nil {
			t.Fatal(err)
		}
		switch {
		case v >= start && v < start+count:
			if !bytes.Equal(one, data[v-start]) {
				t.Fatalf("volume block %d not on member %d/%d", v, m, local)
			}
		default:
			if !bytes.Equal(one, zero) {
				t.Fatalf("batch leaked into volume block %d", v)
			}
		}
	}

	// Scattered batch across members round-trips too.
	idx := []uint64{22, 1, 14, 9, 2}
	sd := AllocBlocks(len(idx), bs)
	fillPattern(sd, 77)
	if err := WriteBlocksAt(s, idx, sd); err != nil {
		t.Fatal(err)
	}
	got := AllocBlocks(len(idx), bs)
	if err := ReadBlocksAt(s, idx, got); err != nil {
		t.Fatal(err)
	}
	for i := range idx {
		if !bytes.Equal(got[i], sd[i]) {
			t.Fatalf("scattered striped block %d diverges", idx[i])
		}
	}
}

// TestFaultMidBatchPrefix verifies a fault firing inside a batch
// leaves the documented prefix: blocks before the failing index
// transferred, blocks at and after it untouched.
func TestFaultMidBatchPrefix(t *testing.T) {
	const bs, n = 64, 16
	base := NewMem(bs, n)
	f := NewFault(base)

	data := AllocBlocks(6, bs)
	fillPattern(data, 3)
	f.FailWritesAfter(4)
	err := WriteBlocks(f, 2, data)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	one := make([]byte, bs)
	zero := make([]byte, bs)
	for i := 0; i < 6; i++ {
		if err := base.ReadBlock(2+uint64(i), one); err != nil {
			t.Fatal(err)
		}
		if i < 4 {
			if !bytes.Equal(one, data[i]) {
				t.Fatalf("prefix block %d not written", i)
			}
		} else if !bytes.Equal(one, zero) {
			t.Fatalf("block %d written past the fault", i)
		}
	}

	// Read side: the prefix is filled, the rest untouched.
	f.Heal()
	f.FailReadsAfter(2)
	bufs := AllocBlocks(4, bs)
	fillPattern(bufs, 200) // sentinel
	sentinel := append([]byte(nil), bufs[2]...)
	err = ReadBlocksAt(f, []uint64{2, 3, 4, 5}, bufs)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if !bytes.Equal(bufs[0], data[0]) || !bytes.Equal(bufs[1], data[1]) {
		t.Fatal("read prefix not filled before the fault")
	}
	if !bytes.Equal(bufs[2], sentinel) {
		t.Fatal("buffer past the fault was touched")
	}
}

// TestTracedBatchEvents verifies contiguous batches trace as one
// ranged event, scattered batches as per-block events, and that both
// Counter and ExpandEvents agree on the per-block view.
func TestTracedBatchEvents(t *testing.T) {
	var col Collector
	var cnt Counter
	d := NewTraced(NewMem(64, 32), MultiTracer{&col, &cnt})

	data := AllocBlocks(5, 64)
	if err := WriteBlocks(d, 10, data); err != nil {
		t.Fatal(err)
	}
	if err := ReadBlocksAt(d, []uint64{3, 8, 1}, data[:3]); err != nil {
		t.Fatal(err)
	}

	events := col.Events()
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4 (1 ranged + 3 scattered)", len(events))
	}
	if events[0].Op != OpWrite || events[0].Block != 10 || events[0].Span() != 5 {
		t.Fatalf("ranged event = %+v", events[0])
	}
	flat := ExpandEvents(events)
	if len(flat) != 8 {
		t.Fatalf("expanded to %d events, want 8", len(flat))
	}
	for i := 0; i < 5; i++ {
		if flat[i].Block != 10+uint64(i) || flat[i].Span() != 1 {
			t.Fatalf("expanded event %d = %+v", i, flat[i])
		}
	}
	if cnt.Writes() != 5 || cnt.Reads() != 3 {
		t.Fatalf("counter saw %d writes / %d reads", cnt.Writes(), cnt.Reads())
	}
	// A failed batch must not be traced.
	if err := ReadBlocks(d, 30, data); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if col.Len() != 4 {
		t.Fatal("failed batch was traced")
	}
}

// TestFileBatchRoundTrip verifies the file device's contiguous and
// run-coalescing scattered batch paths against per-block access.
func TestFileBatchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol")
	d, err := CreateFile(path, 128, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	data := AllocBlocks(10, 128)
	fillPattern(data, 13)
	if err := WriteBlocks(d, 20, data); err != nil {
		t.Fatal(err)
	}
	// Mixed runs: [20,21,22], [40], [25,26].
	idx := []uint64{20, 21, 22, 40, 25, 26}
	bufs := AllocBlocks(len(idx), 128)
	if err := ReadBlocksAt(d, idx, bufs); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 128)
	for i, x := range idx {
		if err := d.ReadBlock(x, one); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one, bufs[i]) {
			t.Fatalf("coalesced read %d (block %d) diverges", i, x)
		}
	}
	// Scattered write through run coalescing, re-read per block.
	fillPattern(bufs, 91)
	if err := WriteBlocksAt(d, idx, bufs); err != nil {
		t.Fatal(err)
	}
	for i, x := range idx {
		if err := d.ReadBlock(x, one); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one, bufs[i]) {
			t.Fatalf("coalesced write %d (block %d) diverges", i, x)
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

// TestSimBatchChargesOneSeek verifies a contiguous batch costs one
// positioning plus n transfers on the disk model.
func TestSimBatchChargesOneSeek(t *testing.T) {
	const bs, n = 512, 1024
	disk := diskmodel.MustNew(diskmodel.Params2004(n, bs))
	s := NewSim(NewMem(bs, n), disk)

	bufs := AllocBlocks(64, bs)
	if err := ReadBlocks(s, 512, bufs); err != nil {
		t.Fatal(err)
	}
	st := disk.Stats()
	if st.Accesses != 64 {
		t.Fatalf("accesses = %d, want 64", st.Accesses)
	}
	if st.Sequential != 63 {
		t.Fatalf("sequential = %d, want 63 (one seek to start)", st.Sequential)
	}
	wantTransfer := 64 * disk.Params().TransferTime()
	if st.TransferTime != wantTransfer {
		t.Fatalf("transfer time %v, want %v", st.TransferTime, wantTransfer)
	}

	// A scattered batch is n accesses, charged in index order: the
	// same clock and stats as single accesses in that order.
	idx := []uint64{900, 10, 511, 512, 100}
	ref := diskmodel.MustNew(diskmodel.Params2004(n, bs))
	ref.AccessRange(512, 64, false)
	for _, i := range idx {
		ref.Access(i, true)
	}
	if err := WriteBlocksAt(s, idx, bufs[:len(idx)]); err != nil {
		t.Fatal(err)
	}
	if disk.Now() != ref.Now() || disk.Stats() != ref.Stats() {
		t.Fatalf("scattered batch charged %v %+v, want %v %+v", disk.Now(), disk.Stats(), ref.Now(), ref.Stats())
	}
}
