package stegfs

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
)

// ownedSet is {header} ∪ BlockLocs() ∪ IndirectLocs() of f.
func ownedSet(f *File) map[uint64]bool {
	set := map[uint64]bool{f.HeaderLoc(): true}
	for _, loc := range append(f.BlockLocs(), f.IndirectLocs()...) {
		set[loc] = true
	}
	return set
}

// TestReferencedAtMatchesOpenFile pins recovery's source of truth to
// the file layer's: what ReferencedAt reports a saved header references
// is exactly what OpenFile of the same file owns — header, data blocks
// and pointer blocks (TestOverProvisionedIndirectsSurviveReload has the
// spare ones).
func TestReferencedAtMatchesOpenFile(t *testing.T) {
	vol, src := testVolume(t, 2048)
	d, per := uint64(vol.directSlots()), uint64(vol.ptrsPerBlock())
	policy := InPlacePolicy{Vol: vol}
	// create makes a file of blocks blocks, shrunk to shrinkTo when that
	// is non-zero, or a dummy file of blocks blocks, and saves it.
	create := func(t *testing.T, fak FAK, path string, blocks, shrinkTo uint64, dummy bool) *File {
		t.Helper()
		if dummy {
			f, err := CreateDummyFile(vol, fak, path, src, blocks)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		f, err := CreateFile(vol, fak, path, src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, blocks*uint64(vol.PayloadSize())), 0, policy); err != nil {
			t.Fatal(err)
		}
		if shrinkTo > 0 {
			if err := f.Resize(shrinkTo*uint64(vol.PayloadSize()), policy); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Save(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	rows := []struct {
		name             string
		blocks, shrinkTo uint64
		dummy            bool
	}{
		{"direct-only", d, 0, false},
		{"single-indirect", d + per/2, 0, false},
		{"double-indirect", d + 2*per + 3, 0, false},
		{"shrunk", 60, 2, false},
		{"dummy", d + per + 5, 0, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			path := "/ref/" + row.name
			fak := DeriveFAK("u", path, vol)
			create(t, fak, path, row.blocks, row.shrinkTo, row.dummy)
			g, err := OpenFile(vol, fak, path, NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(5)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReferencedAt(vol, g.HeaderLoc(), fak.HeaderKey)
			if err != nil {
				t.Fatal(err)
			}
			if want := ownedSet(g); !maps.Equal(got, want) {
				t.Fatalf("ReferencedAt = %v, reopened file owns %v", slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
			}
		})
	}

	path := "/ref/keys"
	fak := DeriveFAK("u", path, vol)
	f := create(t, fak, path, d+per+2, 0, false)
	if _, err := ReferencedAt(vol, f.HeaderLoc(), DeriveFAK("v", path, vol).HeaderKey); !errors.Is(err, ErrNotFound) {
		t.Fatalf("wrong key: %v, want ErrNotFound", err)
	}
	for _, loc := range []uint64{0, vol.NumBlocks()} {
		if _, err := ReferencedAt(vol, loc, fak.HeaderKey); !errors.Is(err, ErrNotFound) {
			t.Fatalf("header at %d: %v, want ErrNotFound", loc, err)
		}
	}
	if err := vol.RewriteRandom(nil, f.IndirectLocs()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(vol, fak, path, src); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenFile over a broken pointer block: %v, want ErrCorrupt", err)
	}
	if _, err := ReferencedAt(vol, f.HeaderLoc(), fak.HeaderKey); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReferencedAt over a broken pointer block: %v, want ErrCorrupt", err)
	}
}

// TestBlockMapFailsClosedOffTheSpace crafts saved maps, sealed under
// the right key, that name an address outside the steg space: the
// superblock (address 0, the nil pointer) or a journal-ring block.
// Such a map must not load — a reopened file would claim the block,
// and a camouflage update could later rewrite it — so OpenFile and
// ReferencedAt both read it as corrupt, as they read a map that names
// one block twice. A dummy map is no exception: saves are copy-on-write,
// so no crash leaves a header reading a newer pointer block, and a zero
// or a repeat in a dummy map is damage too.
func TestBlockMapFailsClosedOffTheSpace(t *testing.T) {
	vol, err := Format(blockdev.NewMem(128, 1024), FormatOptions{KDFIterations: 4, FillSeed: []byte("t"), JournalBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	src := NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(1))
	d, per := uint64(vol.directSlots()), uint64(vol.ptrsPerBlock())
	ring := vol.FirstDataBlock() - 1 // the ring's last block

	zeroOuter := func(h *header, take func() uint64) map[uint64][]uint64 {
		h.blockCount = d + per + 1
		fillDirect(h, take)
		h.single, h.double = take(), take()
		inner := take()
		h.outerCount = 2
		return map[uint64][]uint64{
			h.single: takeN(take, per),
			h.double: {inner, 0},
			inner:    {take()},
		}
	}
	rows := []struct {
		name  string
		flags uint32
		// craft fills h (block count and pointers) and returns the
		// pointer blocks to seal, by location.
		craft func(h *header, take func() uint64) map[uint64][]uint64
	}{
		{"zero outer pointer past the needed inner blocks", 0, zeroOuter},
		{"direct slot of zero", 0, func(h *header, take func() uint64) map[uint64][]uint64 {
			h.blockCount = d
			fillDirect(h, take)
			h.direct[d-1] = 0
			return nil
		}},
		{"inner pointer into the ring", 0, func(h *header, take func() uint64) map[uint64][]uint64 {
			h.blockCount = d + per + 1
			fillDirect(h, take)
			h.single, h.double = take(), take()
			inner := take()
			h.outerCount = 1
			return map[uint64][]uint64{
				h.single: takeN(take, per),
				h.double: {inner},
				inner:    {ring},
			}
		}},
		{"dummy: zero outer pointer", flagDummy, zeroOuter},
		{"dummy: block named twice", flagDummy, func(h *header, take func() uint64) map[uint64][]uint64 {
			h.blockCount = d + 3
			fillDirect(h, take)
			h.single = take()
			return map[uint64][]uint64{h.single: {take(), h.direct[1], take()}}
		}},
		{"pointer block named as data", 0, func(h *header, take func() uint64) map[uint64][]uint64 {
			h.blockCount = d + 1
			fillDirect(h, take)
			h.single = take()
			return map[uint64][]uint64{h.single: {h.single}}
		}},
		{"dummy: torn save's zero tail", flagDummy, func(h *header, take func() uint64) map[uint64][]uint64 {
			h.blockCount = d + 3
			fillDirect(h, take)
			h.single = take()
			return map[uint64][]uint64{h.single: {take()}}
		}},
	}
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			path := "/crafted/" + string(rune('a'+i))
			fak := DeriveFAK("u", path, vol)
			f, err := CreateFile(vol, fak, path, src)
			if err != nil {
				t.Fatal(err)
			}
			take := func() uint64 {
				loc, err := src.AcquireRandom()
				if err != nil {
					t.Fatal(err)
				}
				return loc
			}
			h := &header{flags: row.flags, pathHash: PathHash(path), direct: make([]uint64, d)}
			ptrs := row.craft(h, take)
			hseal, err := vol.NewSealer(fak.HeaderKey)
			if err != nil {
				t.Fatal(err)
			}
			for loc, p := range ptrs {
				if err := vol.WriteSealed(nil, loc, hseal, vol.encodePtrBlock(p, fak.HeaderKey)); err != nil {
					t.Fatal(err)
				}
			}
			if err := vol.WriteSealed(nil, f.HeaderLoc(), hseal, vol.encodeHeader(h, fak.HeaderKey)); err != nil {
				t.Fatal(err)
			}
			g, err := OpenFile(vol, fak, path, NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(2)))
			if !errors.Is(err, ErrCorrupt) {
				var owned []uint64
				if g != nil {
					owned = slices.Sorted(maps.Keys(ownedSet(g)))
				}
				t.Errorf("OpenFile: %v, want ErrCorrupt (loaded map owns %v)", err, owned)
			}
			if refs, err := ReferencedAt(vol, f.HeaderLoc(), fak.HeaderKey); !errors.Is(err, ErrCorrupt) {
				t.Errorf("ReferencedAt: %v, want ErrCorrupt (references %v)", err, slices.Sorted(maps.Keys(refs)))
			}
		})
	}
}

// fillDirect points every direct slot a header of h.blockCount blocks
// uses at a fresh block.
func fillDirect(h *header, take func() uint64) {
	for i := range h.direct {
		if uint64(i) < h.blockCount {
			h.direct[i] = take()
		}
	}
}

func takeN(take func() uint64, n uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = take()
	}
	return out
}
