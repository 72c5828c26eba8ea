package oblivious

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"steghide/internal/blockdev"
	"steghide/internal/diskmodel"
	"steghide/internal/prng"
	"steghide/internal/sealer"
)

// TestStoreFaultDuringShuffle fails the device at every block write of
// one dump in turn — run formation, each merge pass, the final
// placement — and requires the injected error back from that dump.
func TestStoreFaultDuringShuffle(t *testing.T) {
	const bufCap, levels = 4, 3
	build := func() (*Store, *blockdev.FaultDevice) {
		fd := blockdev.NewFault(blockdev.NewMem(128, Footprint(bufCap, levels)))
		s, err := New(Config{
			Dev:          fd,
			Key:          sealer.DeriveKey([]byte("k"), "fault"),
			BufferBlocks: bufCap,
			Levels:       levels,
			RNG:          prng.NewFromUint64(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 7; i++ {
			if err := s.Put(BlockID{File: 1, Index: uint64(i)}, make([]byte, s.ValueSize())); err != nil {
				t.Fatal(err)
			}
		}
		return s, fd
	}
	s, _ := build()
	before := s.Stats().ShuffleWrites
	if err := s.dump(0); err != nil {
		t.Fatal(err)
	}
	writes := int64(s.Stats().ShuffleWrites - before)
	if writes < 2*24 {
		t.Fatalf("dump wrote only %d blocks; expected run formation and at least one merge pass", writes)
	}
	for n := int64(0); n < writes; n++ {
		s, fd := build()
		fd.FailWritesAfter(n)
		if err := s.dump(0); !errors.Is(err, blockdev.ErrInjected) {
			t.Fatalf("write fault at block write %d of %d: %v", n, writes, err)
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
	if err := s.Flush(); err != nil {
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
