package stegfs

import (
	"bytes"
	"errors"
	"maps"
	"slices"
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

// TestOverProvisionedIndirectsSurviveReload: a map that lists more
// pointer blocks than its blocks need — what a shrink's save wrote
// before saves became copy-on-write — opens with every spare owned, and
// ReferencedAt reports the same set. The next save writes the exact
// shape and releases the spares once its header is written.
func TestOverProvisionedIndirectsSurviveReload(t *testing.T) {
	vol, src := testVolume(t, 2048)
	fak := DeriveFAK("u", "/shrink", vol)
	f, err := CreateFile(vol, fak, "/shrink", src)
	if err != nil {
		t.Fatal(err)
	}
	policy := InPlacePolicy{Vol: vol}
	ps := vol.PayloadSize()
	big := prng.NewFromUint64(4).Bytes(60 * ps)
	if _, err := f.WriteAt(big, 0, policy); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(); err != nil {
		t.Fatal(err)
	}
	spares := f.IndirectLocs()
	if len(spares) < 3 {
		t.Fatalf("expected single+outer+double, have %v", spares)
	}
	// The header such a shrink to two blocks left: every pointer block
	// still listed.
	h := &header{
		outerCount: uint32(len(f.outerPtrs)), fileSize: uint64(2 * ps), blockCount: 2,
		pathHash: PathHash("/shrink"), single: f.single, double: f.double,
		direct: make([]uint64, vol.directSlots()),
	}
	copy(h.direct, f.blocks[:2])
	if err := vol.WriteSealed(nil, f.HeaderLoc(), f.HeaderSealer(), vol.encodeHeader(h, fak.HeaderKey)); err != nil {
		t.Fatal(err)
	}

	claims := NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(9))
	g, err := OpenFile(vol, fak, "/shrink", claims)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.IndirectLocs(); !slices.Equal(got, spares) {
		t.Fatalf("reload owns pointer blocks %v, the header lists %v", got, spares)
	}
	refs, err := ReferencedAt(vol, g.HeaderLoc(), fak.HeaderKey)
	if err != nil {
		t.Fatal(err)
	}
	want := ownedSet(g)
	if !maps.Equal(refs, want) {
		t.Fatalf("ReferencedAt = %v, reopened file owns %v", slices.Sorted(maps.Keys(refs)), slices.Sorted(maps.Keys(want)))
	}
	got := make([]byte, 2*ps)
	if _, err := g.ReadAt(got, 0); err != nil || !bytes.Equal(got, big[:2*ps]) {
		t.Fatalf("over-provisioned map reads back wrong (err=%v)", err)
	}

	// Delete releases every block of such a map, its spare pointer
	// blocks included.
	held := NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(10))
	d, err := OpenFile(vol, fak, "/shrink", held)
	if err != nil {
		t.Fatal(err)
	}
	for loc := range want {
		if held.IsFree(loc) {
			t.Fatalf("open left block %d of the map unclaimed", loc)
		}
	}
	if err := d.Delete(); err != nil {
		t.Fatal(err)
	}
	for loc := range want {
		if !held.IsFree(loc) {
			t.Fatalf("delete kept block %d of an over-provisioned map", loc)
		}
	}

	if err := g.Resize(g.Size(), policy); err != nil { // dirties the map
		t.Fatal(err)
	}
	if err := g.Save(); err != nil {
		t.Fatal(err)
	}
	if got := g.IndirectLocs(); len(got) != 0 {
		t.Fatalf("a save of two blocks kept pointer blocks %v", got)
	}
	for _, loc := range spares {
		if !claims.IsFree(loc) {
			t.Fatalf("spare pointer block %d still held after the save", loc)
		}
	}
	re, err := OpenFile(vol, fak, "/shrink", src)
	if err != nil {
		t.Fatal(err)
	}
	if re.NumBlocks() != 2 || len(re.IndirectLocs()) != 0 {
		t.Fatalf("saved map reopens with %d blocks and pointer blocks %v", re.NumBlocks(), re.IndirectLocs())
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
