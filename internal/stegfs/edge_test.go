package stegfs

import (
	"bytes"
	"errors"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
)

// TestDummyFileSelfSourcingSave reproduces the trickiest Save path: a
// dummy file whose pointer blocks are allocated out of its own data
// blocks (the volatile construction's self-donating source).
type selfSource struct {
	*BitmapSource
	f *File
}

func (s *selfSource) AcquireRandom() (uint64, error) {
	// Donate the dummy file's own blocks when it has any.
	if s.f != nil && s.f.NumBlocks() > 0 {
		locs := s.f.BlockLocs()
		loc := locs[len(locs)-1]
		if _, err := s.f.RemoveBlockAt(len(locs)-1, loc); err == nil {
			return loc, nil
		}
	}
	return s.BitmapSource.AcquireRandom()
}

func TestDummyFileSelfSourcingSave(t *testing.T) {
	vol, src := testVolume(t, 1024)
	fak := DeriveFAK("u", "/selfdummy", vol)
	wrapped := &selfSource{BitmapSource: src}
	// Big enough to need single + double indirection (payload 112 →
	// 3 direct + 14 single; 60 blocks forces the double chain).
	f, err := CreateDummyFile(vol, fak, "/selfdummy", wrapped, 60)
	if err != nil {
		t.Fatal(err)
	}
	wrapped.f = f

	// Mutate and save repeatedly: every save may consume the file's
	// own tail blocks for pointer blocks.
	for round := 0; round < 5; round++ {
		locs := f.BlockLocs()
		// Force dirtiness through a legitimate mutation.
		if _, err := f.RemoveBlockAt(len(locs)-1, locs[len(locs)-1]); err != nil {
			t.Fatal(err)
		}
		src.Release(locs[len(locs)-1])
		if err := f.Save(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Reload and verify the map is exactly what the handle says.
		g, err := OpenFile(vol, fak, "/selfdummy", NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(9)))
		if err != nil {
			t.Fatalf("round %d reopen: %v", round, err)
		}
		if g.NumBlocks() != f.NumBlocks() {
			t.Fatalf("round %d: reloaded %d blocks, handle has %d", round, g.NumBlocks(), f.NumBlocks())
		}
		want := f.BlockLocs()
		got := g.BlockLocs()
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("round %d: map diverges at %d", round, i)
			}
		}
	}
}

func TestOverProvisionedIndirectsSurviveReload(t *testing.T) {
	// Grow a file into the double-indirect range, shrink it back below
	// the direct range, save, reload: the over-provisioned indirect
	// blocks must be recorded and reusable, not leaked.
	vol, src := testVolume(t, 2048)
	fak := DeriveFAK("u", "/shrink", vol)
	f, err := CreateFile(vol, fak, "/shrink", src)
	if err != nil {
		t.Fatal(err)
	}
	policy := InPlacePolicy{Vol: vol}
	big := prng.NewFromUint64(4).Bytes(60 * vol.PayloadSize())
	if _, err := f.WriteAt(big, 0, policy); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(); err != nil {
		t.Fatal(err)
	}
	indirects := f.IndirectLocs()
	if len(indirects) < 3 {
		t.Fatalf("expected single+outer+double, have %v", indirects)
	}

	if err := f.Resize(uint64(2*vol.PayloadSize()), policy); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(); err != nil {
		t.Fatal(err)
	}
	// Indirects are kept (never released by Save), still recorded.
	if got := f.IndirectLocs(); len(got) != len(indirects) {
		t.Fatalf("indirects changed on shrink: %v -> %v", indirects, got)
	}

	g, err := OpenFile(vol, fak, "/shrink", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.IndirectLocs()) != len(indirects) {
		t.Fatalf("reload lost indirects: %v vs %v", g.IndirectLocs(), indirects)
	}
	// Growing again reuses them rather than acquiring new ones.
	used := usedCount(src)
	if _, err := g.WriteAt(big, 0, policy); err != nil {
		t.Fatal(err)
	}
	if err := g.Save(); err != nil {
		t.Fatal(err)
	}
	grewBy := usedCount(src) - used
	if grewBy > 60 {
		t.Fatalf("regrow acquired %d blocks; indirects not reused", grewBy)
	}
	got := make([]byte, len(big))
	if _, err := g.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("content mismatch after shrink/regrow cycle")
	}
	// Delete releases everything including the spares.
	before := usedCount(src)
	if err := g.Delete(); err != nil {
		t.Fatal(err)
	}
	released := before - usedCount(src)
	if released < 60+uint64(len(indirects)) {
		t.Fatalf("delete released only %d blocks", released)
	}
}

func TestCorruptIndirectChainFailsClosed(t *testing.T) {
	vol, src := testVolume(t, 1024)
	fak := DeriveFAK("u", "/chain", vol)
	f, err := CreateFile(vol, fak, "/chain", src)
	if err != nil {
		t.Fatal(err)
	}
	policy := InPlacePolicy{Vol: vol}
	if _, err := f.WriteAt(make([]byte, 40*vol.PayloadSize()), 0, policy); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(); err != nil {
		t.Fatal(err)
	}
	// Smash the single-indirect block with random bytes: the open
	// must fail with a structural error, never return wrong data.
	if err := vol.RewriteRandom(nil, f.IndirectLocs()[0]); err != nil {
		t.Fatal(err)
	}
	_, err = OpenFile(vol, fak, "/chain", src)
	if err == nil {
		t.Fatal("corrupt chain opened successfully")
	}
	if errors.Is(err, ErrNotFound) {
		// Header still decodes; the failure must be structural, not a
		// silent "no such file".
		t.Fatalf("corrupt chain reported as not-found: %v", err)
	}
}

func TestRewriteRandomChangesBlock(t *testing.T) {
	vol, _ := testVolume(t, 64)
	before := make([]byte, vol.BlockSize())
	if err := blockdev.ReadBlock(vol.Device(), 5, before); err != nil {
		t.Fatal(err)
	}
	if err := vol.RewriteRandom(nil, 5); err != nil {
		t.Fatal(err)
	}
	after := make([]byte, vol.BlockSize())
	if err := blockdev.ReadBlock(vol.Device(), 5, after); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(before, after) {
		t.Fatal("RewriteRandom left the block unchanged")
	}
}

func TestOpenOnFaultyDevice(t *testing.T) {
	fd := blockdev.NewFault(blockdev.NewMem(128, 256))
	vol, err := Format(fd, FormatOptions{KDFIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	src := NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(1))
	fak := DeriveFAK("u", "/x", vol)
	f, err := CreateFile(vol, fak, "/x", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("abc"), 0, InPlacePolicy{Vol: vol}); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(); err != nil {
		t.Fatal(err)
	}
	fd.FailReadsAfter(0)
	if _, err := OpenFile(vol, fak, "/x", src); !errors.Is(err, blockdev.ErrInjected) {
		t.Fatalf("device fault not surfaced by open: %v", err)
	}
}
