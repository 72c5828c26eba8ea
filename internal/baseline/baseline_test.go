package baseline

import (
	"bytes"
	"errors"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/diskmodel"
	"steghide/internal/prng"
)

// readBack reads a file's blocks through dev in logical order, as a
// whole-file scan does: its content, padded to whole blocks.
func readBack(s Store, dev blockdev.Device, name string) ([]byte, error) {
	locs, err := s.FileBlocks(name)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(locs)*dev.BlockSize())
	buf := make([]byte, dev.BlockSize())
	for _, loc := range locs {
		if err := blockdev.ReadBlock(dev, loc, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out, nil
}

func storeContract(t *testing.T, s Store, dev blockdev.Device) {
	t.Helper()
	rng := prng.NewFromUint64(1)
	data := rng.Bytes(20*s.BlockPayload() + 37) // unaligned tail
	if err := s.Write("/a", data); err != nil {
		t.Fatal(err)
	}
	if err := s.Write("/a", data); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate write: %v", err)
	}
	got, err := readBack(s, dev, "/a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatal("roundtrip mismatch")
	}

	// Block-aligned update in the middle.
	upd := rng.Bytes(3 * s.BlockPayload())
	if err := s.UpdateBlocks("/a", 5, upd); err != nil {
		t.Fatal(err)
	}
	copy(data[5*s.BlockPayload():], upd)
	got, err = readBack(s, dev, "/a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatal("update corrupted file")
	}
	if err := s.UpdateBlocks("/a", 0, upd[:10]); err == nil {
		t.Fatal("unaligned update accepted")
	}
	if err := s.UpdateBlocks("/a", 20, upd); err == nil {
		t.Fatal("out-of-range update accepted")
	}
	if err := s.UpdateBlocks("/missing", 0, upd); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing: %v", err)
	}

	blocks, err := s.FileBlocks("/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 21 {
		t.Fatalf("FileBlocks returned %d", len(blocks))
	}
	if _, err := s.FileBlocks("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("blocks of missing: %v", err)
	}
}

func TestCleanDiskContract(t *testing.T) {
	dev := blockdev.NewMem(256, 512)
	storeContract(t, NewCleanDisk(dev), dev)
}

func TestFragDiskContract(t *testing.T) {
	dev := blockdev.NewMem(256, 512)
	storeContract(t, NewFragDisk(dev, prng.NewFromUint64(7)), dev)
}

func TestCleanDiskContiguous(t *testing.T) {
	c := NewCleanDisk(blockdev.NewMem(256, 128))
	c.Write("/f", make([]byte, 10*256))
	blocks, _ := c.FileBlocks("/f")
	for i := 1; i < len(blocks); i++ {
		if blocks[i] != blocks[i-1]+1 {
			t.Fatalf("not contiguous at %d", i)
		}
	}
}

func TestFragDiskFragmented(t *testing.T) {
	f := NewFragDisk(blockdev.NewMem(256, 1024), prng.NewFromUint64(3))
	f.Write("/f", make([]byte, 64*256)) // 8 fragments
	blocks, _ := f.FileBlocks("/f")
	// Within a fragment: contiguous. Across fragments: scattered.
	jumps := 0
	for i := 1; i < len(blocks); i++ {
		if blocks[i] != blocks[i-1]+1 {
			jumps++
			if i%FragmentBlocks != 0 {
				t.Fatalf("discontinuity inside a fragment at block %d", i)
			}
		}
	}
	if jumps < 4 {
		t.Fatalf("only %d fragment jumps; placement not scattered", jumps)
	}
}

func TestOutOfSpace(t *testing.T) {
	c := NewCleanDisk(blockdev.NewMem(256, 8))
	if err := c.Write("/big", make([]byte, 9*256)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("clean overflow: %v", err)
	}
	f := NewFragDisk(blockdev.NewMem(256, 16), prng.NewFromUint64(1))
	if err := f.Write("/big", make([]byte, 17*256)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("frag overflow: %v", err)
	}
}

func TestSequentialAdvantage(t *testing.T) {
	// The reason these baselines exist: single-user streaming on
	// CleanDisk must be far faster than on FragDisk, which in turn
	// beats fully random layouts (Fig. 10a's ordering).
	const nBlocks = 4096
	mkDisk := func() (*blockdev.Sim, *diskmodel.Disk) {
		d := diskmodel.MustNew(diskmodel.Params2004(nBlocks, 4096))
		return blockdev.NewSim(blockdev.NewMem(4096, nBlocks), d), d
	}
	data := make([]byte, 512*4096) // 2 MB file

	cleanDev, cleanDisk := mkDisk()
	clean := NewCleanDisk(cleanDev)
	clean.Write("/f", data)
	cleanDisk.ResetStats()
	t0 := cleanDisk.Now()
	readBack(clean, cleanDev, "/f")
	cleanTime := cleanDisk.Now() - t0

	fragDev, fragDisk := mkDisk()
	frag := NewFragDisk(fragDev, prng.NewFromUint64(5))
	frag.Write("/f", data)
	t0 = fragDisk.Now()
	readBack(frag, fragDev, "/f")
	fragTime := fragDisk.Now() - t0

	if cleanTime*2 > fragTime {
		t.Fatalf("CleanDisk (%v) should be ≫ faster than FragDisk (%v)", cleanTime, fragTime)
	}
}
