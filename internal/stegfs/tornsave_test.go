package stegfs

import (
	"bytes"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/sealer"
)

// movingPolicy relocates every block of a run to a fresh random block
// and keeps the one it left: the old header may still read it until the
// save lands, which is what the agents' limbo guarantees.
type movingPolicy struct {
	vol *Volume
	src BlockSource
}

func (p movingPolicy) Update(locs []uint64, _ uint64, _ *sealer.Sealer, sealed [][]byte) error {
	moved := make([]uint64, len(locs))
	for i := range locs {
		loc, err := p.src.AcquireRandom()
		if err != nil {
			return err
		}
		moved[i] = loc
	}
	if err := p.vol.WriteRaw(moved, sealed); err != nil {
		return err
	}
	copy(locs, moved)
	return nil
}

// recyclingSource hands out the block released last before any other,
// so a draw that may land on a block the durable header still reads
// does.
type recyclingSource struct {
	*BitmapSource
	freed []uint64
}

func (s *recyclingSource) Release(loc uint64) {
	s.BitmapSource.Release(loc)
	s.freed = append(s.freed, loc)
}

func (s *recyclingSource) AcquireRandom() (uint64, error) {
	for len(s.freed) > 0 {
		loc := s.freed[len(s.freed)-1]
		s.freed = s.freed[:len(s.freed)-1]
		if s.Acquire(loc) {
			return loc, nil
		}
	}
	return s.BitmapSource.AcquireRandom()
}

// TestTornSaveLeavesOldOrNewFile cuts the power at every write index of
// a change and the save that commits it — a shrink, a growth and a
// relocating rewrite, each of a file whose map has only a
// single-indirect block (12 blocks of 128 bytes: 3 direct slots, 13
// addresses per pointer block) and of one with a double-indirect map
// (40 blocks) — then reopens the file from the device. It must read as
// the old file or the new one, size and every byte: never ErrCorrupt,
// never a mix. In the last row every draw takes the block released
// last, so a shrink's cut released before the header that drops it is
// written would take the save's fresh pointer block. No journal: the
// save's write order alone must hold.
func TestTornSaveLeavesOldOrNewFile(t *testing.T) {
	rows := []struct {
		name     string
		from, to int  // blocks before and after
		rewrite  bool // rewrite every block through movingPolicy, else resize
		recycle  bool
	}{
		{"shrink/single", 12, 2, false, false},
		{"shrink/double", 40, 10, false, false},
		{"grow/single", 12, 30, false, false},
		{"grow/double", 40, 60, false, false},
		{"rewrite/single", 12, 12, true, false},
		{"rewrite/double", 40, 40, true, false},
		{"shrink/double/draws-recycle-the-cut", 40, 10, false, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// run builds the file, arms a cut after k writes of the change
			// and its save (k < 0: none), runs them, and returns the device
			// and how many writes they made.
			run := func(k int64) (*blockdev.FaultDevice, int64) {
				fd := blockdev.NewFault(blockdev.NewMem(128, 1024))
				vol, err := Format(fd, FormatOptions{KDFIterations: 4, FillSeed: []byte("torn")})
				if err != nil {
					t.Fatal(err)
				}
				bits := NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(1))
				var src BlockSource = bits
				if row.recycle {
					src = &recyclingSource{BitmapSource: bits}
				}
				f, err := CreateFile(vol, DeriveFAK("u", "/f", vol), "/f", src)
				if err != nil {
					t.Fatal(err)
				}
				ps := vol.PayloadSize()
				if _, err := f.WriteAt(prng.NewFromUint64(1).Bytes(row.from*ps), 0, InPlacePolicy{Vol: vol}); err != nil {
					t.Fatal(err)
				}
				if err := f.Save(); err != nil {
					t.Fatal(err)
				}
				base := fd.Writes()
				if k >= 0 {
					fd.PowerCutAfterWrites(k)
				}
				if row.rewrite {
					_, err = f.WriteAt(prng.NewFromUint64(2).Bytes(row.to*ps), 0, movingPolicy{vol: vol, src: src})
				} else {
					err = f.Resize(uint64(row.to*ps), InPlacePolicy{Vol: vol})
				}
				if err == nil {
					err = f.Save()
				}
				if (err == nil) != (k < 0) {
					t.Fatalf("cut after %d writes: the change and its save returned %v", k, err)
				}
				return fd, fd.Writes() - base
			}
			_, total := run(-1)
			for k := int64(0); k <= total; k++ {
				// The header is the save's last write: every cut before it
				// leaves the old file, and only the whole run the new one.
				landed := k == total
				fd, _ := run(map[bool]int64{false: k, true: -1}[landed])
				fd.Heal()
				vol, err := Open(fd, prng.NewFromUint64(3))
				if err != nil {
					t.Fatal(err)
				}
				ps := vol.PayloadSize()
				want := prng.NewFromUint64(1).Bytes(row.from * ps)
				switch {
				case !landed:
				case row.rewrite:
					want = prng.NewFromUint64(2).Bytes(row.to * ps)
				case row.to < row.from:
					want = want[:row.to*ps]
				default:
					want = append(want, make([]byte, (row.to-row.from)*ps)...)
				}
				f, err := OpenFile(vol, DeriveFAK("u", "/f", vol), "/f", NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(4)))
				if err != nil {
					t.Fatalf("cut after %d of %d writes: reopen: %v", k, total, err)
				}
				got := make([]byte, f.Size())
				if _, err := f.ReadAt(got, 0); err != nil {
					t.Fatalf("cut after %d of %d writes: read: %v", k, total, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("cut after %d of %d writes: reads %d bytes, not the %d of the %s file",
						k, total, len(got), len(want), map[bool]string{false: "old", true: "new"}[landed])
				}
			}
			t.Logf("%d write indices", total)
		})
	}
}
