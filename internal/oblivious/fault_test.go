package oblivious

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"steghide/internal/blockdev"
	"steghide/internal/diskmodel"
	"steghide/internal/prng"
	"steghide/internal/sealer"
)

// TestStoreFaultDuringShuffle fails the device, in turn, at each block
// write of one dump (run formation, each merge pass, the final
// placement) and at the first block of each write call of a cascade
// into an empty level (each pass of its sort, the final placement into
// level m+1, the refill of levels 1..m), and requires the injected
// error back from the dump, or from the Put that ran the cascade. Then
// the device heals and every block ever put is read back: a Get may
// fail or miss (the caller then fetches the block from the
// steganographic partition), but a hit must return the value last put.
// The cascade is caught at period 3·2^m, so deeper levels hold older
// copies of the blocks it moves.
func TestStoreFaultDuringShuffle(t *testing.T) {
	type row struct {
		bufCap, levels int
		cascade        int // 0: dump(0) after 7 puts
	}
	// Cascades of m ≤ 2: at (8, 5) the cascade of m = 3 runs the same
	// kinds of pass as m = 2 over twice the runs, at three times the
	// cost of all the other rows together.
	rows := []row{{4, 3, 0}}
	for _, g := range cascadeGeoms {
		for m := 1; m <= min(g.levels-2, 2); m++ {
			rows = append(rows, row{g.bufCap, g.levels, m})
		}
	}
	for _, r := range rows {
		end := uint64(7)
		if r.cascade > 0 {
			end = cascadePeriod(r.cascade)*uint64(r.bufCap) - 1
		}
		distinct := 3 * r.bufCap
		build := func() (*Store, *tapDev, *blockdev.FaultDevice, map[uint64][]byte) {
			fd := blockdev.NewFault(blockdev.NewMem(128, Footprint(r.bufCap, r.levels)))
			d := &tapDev{Device: fd}
			s, err := New(Config{
				Dev:          d,
				Key:          sealer.DeriveKey([]byte("k"), "fault"),
				BufferBlocks: r.bufCap,
				Levels:       r.levels,
				RNG:          prng.NewFromUint64(1),
			})
			if err != nil {
				t.Fatal(err)
			}
			model := map[uint64][]byte{}
			putUntil(t, s, end, 1, distinct, model)
			return s, d, fd, model
		}
		// shuffle runs the dump, or the Put that ends the period and
		// runs the cascade.
		shuffle := func(s *Store, model map[uint64][]byte) error {
			if r.cascade == 0 {
				return s.dump(0)
			}
			idx := end % uint64(distinct)
			model[idx] = val(s, 1<<16+end)
			return s.Put(BlockID{File: 1, Index: idx}, model[idx])
		}
		what := fmt.Sprintf("(%d,%d) dump(0)", r.bufCap, r.levels)
		if r.cascade > 0 {
			what = fmt.Sprintf("(%d,%d) cascade(%d)", r.bufCap, r.levels, r.cascade)
		}

		s, d, _, model := build()
		d.recording = true
		if err := shuffle(s, model); err != nil {
			t.Fatal(err)
		}
		// The block writes to fail at: every one of a dump; the first of
		// each write call of a cascade, after the flush into level 1.
		var at []int64
		written := int64(0)
		for _, c := range d.calls {
			if !c.write {
				continue
			}
			for i := range c.blocks {
				if r.cascade == 0 || (i == 0 && written >= 2*int64(r.bufCap)) {
					at = append(at, written+int64(i))
				}
			}
			written += int64(len(c.blocks))
		}
		if r.cascade == 0 && written < 2*24 {
			t.Fatalf("%s wrote only %d blocks; expected run formation and at least one merge pass", what, written)
		}
		for _, n := range at {
			s, _, fd, model := build()
			fd.FailWritesAfter(n)
			if err := shuffle(s, model); !errors.Is(err, blockdev.ErrInjected) {
				t.Fatalf("%s: write fault at block write %d of %d: %v", what, n, written, err)
			}
			fd.Heal()
			for _, idx := range slices.Sorted(maps.Keys(model)) {
				got, ok, err := s.Get(BlockID{File: 1, Index: idx})
				if err == nil && ok && !bytes.Equal(got, model[idx]) {
					t.Fatalf("%s, fault at block write %d: Get(%d) returned a stale value", what, n, idx)
				}
			}
		}
	}
}

func TestStoreFaultOnGet(t *testing.T) {
	const bufCap, levels = 4, 3
	fd := blockdev.NewFault(blockdev.NewMem(128, Footprint(bufCap, levels)))
	s, err := New(Config{
		Dev:          fd,
		Key:          sealer.DeriveKey([]byte("k"), "fault2"),
		BufferBlocks: bufCap,
		Levels:       levels,
		RNG:          prng.NewFromUint64(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Put(BlockID{File: 1, Index: uint64(i)}, make([]byte, s.ValueSize())); err != nil {
			t.Fatal(err)
		}
	}
	if err := drainBuffer(s); err != nil {
		t.Fatal(err)
	}
	fd.FailReadsAfter(0)
	if _, _, err := s.Get(BlockID{File: 1, Index: 0}); !errors.Is(err, blockdev.ErrInjected) {
		t.Fatalf("get fault not propagated: %v", err)
	}
}

func TestStoreClockSplitsSortAndRetrieve(t *testing.T) {
	// With a simulated disk attached, SortTime + RetrieveTime must
	// both accumulate and stay distinct.
	const bufCap, levels = 4, 3
	need := Footprint(bufCap, levels)
	disk := diskmodel.MustNew(diskmodel.Params2004(need, 4096))
	dev := blockdev.NewSim(blockdev.NewMem(128, need), disk)
	s, err := New(Config{
		Dev:          dev,
		Key:          sealer.DeriveKey([]byte("k"), "clock"),
		BufferBlocks: bufCap,
		Levels:       levels,
		RNG:          prng.NewFromUint64(3),
		Clock:        disk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	val := prng.NewFromUint64(4).Bytes(s.ValueSize())
	for i := 0; i < 12; i++ {
		if err := s.Put(BlockID{File: 1, Index: uint64(i)}, val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		v, ok, err := s.Get(BlockID{File: 1, Index: uint64(i)})
		if err != nil || !ok {
			t.Fatalf("get %d: %v %v", i, ok, err)
		}
		if !bytes.Equal(v, val) {
			t.Fatalf("block %d corrupted", i)
		}
	}
	st := s.Stats()
	if st.SortTime <= 0 {
		t.Fatalf("no sort time recorded: %+v", st)
	}
	if st.RetrieveTime <= 0 {
		t.Fatalf("no retrieve time recorded: %+v", st)
	}
	total := st.SortTime + st.RetrieveTime
	if total > disk.Now()+time.Millisecond {
		t.Fatalf("accounted time %v exceeds disk time %v", total, disk.Now())
	}
}
