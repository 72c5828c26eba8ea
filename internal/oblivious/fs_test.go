package oblivious

import (
	"bytes"
	"errors"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// newFS builds a StegFS volume plus an oblivious cache big enough for
// it. The cache device uses a larger block size so a full StegFS
// payload fits a slot.
func newFS(t *testing.T) (*FS, *stegfs.Volume, *stegfs.BitmapSource, *blockdev.Collector) {
	t.Helper()
	vol, err := stegfs.Format(blockdev.NewMem(128, 1024), stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("fs")})
	if err != nil {
		t.Fatal(err)
	}
	src := stegfs.NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(1))

	// Slot must fit payload(112) + meta(48) + IV(16) = 176 → 192.
	col := &blockdev.Collector{}
	const bufCap, levels = 8, 4
	cacheDev := blockdev.NewTraced(blockdev.NewMem(192, Footprint(bufCap, levels)), col)
	store, err := New(Config{
		Dev:          cacheDev,
		Key:          sealer.DeriveKey([]byte("session"), "cache"),
		BufferBlocks: bufCap,
		Levels:       levels,
		RNG:          prng.NewFromUint64(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFS(store, vol, prng.NewFromUint64(3))
	if err != nil {
		t.Fatal(err)
	}
	return fs, vol, src, col
}

func TestNewFSRejectsSmallSlots(t *testing.T) {
	vol, err := stegfs.Format(blockdev.NewMem(128, 64), stegfs.FormatOptions{KDFIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	small, err := New(Config{
		Dev:          blockdev.NewMem(128, Footprint(4, 2)), // value 64 < payload 112
		Key:          sealer.DeriveKey([]byte("k"), "c"),
		BufferBlocks: 4,
		Levels:       2,
		RNG:          prng.NewFromUint64(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFS(small, vol, prng.NewFromUint64(1)); err == nil {
		t.Fatal("undersized slots accepted")
	}
}

func TestFSReadThroughCache(t *testing.T) {
	fs, vol, src, _ := newFS(t)
	fak := stegfs.DeriveFAK("p", "/data", vol)
	f, err := stegfs.CreateFile(vol, fak, "/data", src)
	if err != nil {
		t.Fatal(err)
	}
	content := prng.NewFromUint64(9).Bytes(10 * vol.PayloadSize())
	if _, err := f.WriteAt(content, 0, stegfs.InPlacePolicy{Vol: vol}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Register(1, f); err != nil {
		t.Fatal(err)
	}
	if err := fs.Register(1, f); err == nil {
		t.Fatal("duplicate registration accepted")
	}

	// First pass: misses + fetches.
	got := make([]byte, len(content))
	if _, err := fs.ReadAt(1, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("first read mismatch")
	}
	st := fs.Stats()
	if st.Fetches != 10 {
		t.Fatalf("fetches %d, want 10", st.Fetches)
	}

	// Second pass: served by the cache, no new fetches.
	got2 := make([]byte, len(content))
	if _, err := fs.ReadAt(1, got2, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, content) {
		t.Fatal("cached read mismatch")
	}
	if fs.Stats().Fetches != 10 {
		t.Fatalf("re-read fetched again: %d", fs.Stats().Fetches)
	}
}

func TestFSEachStegBlockFetchedOnce(t *testing.T) {
	// Fig. 8(a): "read operations are conducted at most once for each
	// data block" — real fetches, not decoys, are at most one per
	// block even under repeated random reads.
	fs, vol, src, _ := newFS(t)
	fak := stegfs.DeriveFAK("p", "/w", vol)
	f, err := stegfs.CreateFile(vol, fak, "/w", src)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 12
	content := prng.NewFromUint64(4).Bytes(blocks * vol.PayloadSize())
	if _, err := f.WriteAt(content, 0, stegfs.InPlacePolicy{Vol: vol}); err != nil {
		t.Fatal(err)
	}
	fs.Register(1, f)
	rng := prng.NewFromUint64(5)
	for op := 0; op < 300; op++ {
		li := uint64(rng.Intn(blocks))
		payload := make([]byte, vol.PayloadSize())
		if err := fs.ReadBlock(1, li, payload); err != nil {
			t.Fatal(err)
		}
		want := content[int(li)*vol.PayloadSize() : (int(li)+1)*vol.PayloadSize()]
		if !bytes.Equal(payload, want) {
			t.Fatalf("block %d mismatch at op %d", li, op)
		}
	}
	if got := fs.Stats().Fetches; got != blocks {
		t.Fatalf("%d fetches for %d blocks", got, blocks)
	}
}

func TestFSWriteThrough(t *testing.T) {
	fs, vol, src, _ := newFS(t)
	fak := stegfs.DeriveFAK("p", "/rw", vol)
	f, err := stegfs.CreateFile(vol, fak, "/rw", src)
	if err != nil {
		t.Fatal(err)
	}
	policy := stegfs.InPlacePolicy{Vol: vol}
	content := prng.NewFromUint64(6).Bytes(6 * vol.PayloadSize())
	if _, err := f.WriteAt(content, 0, policy); err != nil {
		t.Fatal(err)
	}
	fs.Register(7, f)

	// Read everything through the cache, then update block 3 and
	// verify both the cache and the persistent copy see it.
	buf := make([]byte, len(content))
	fs.ReadAt(7, buf, 0)
	newPayload := prng.NewFromUint64(8).Bytes(vol.PayloadSize())
	if err := fs.WriteBlock(7, 3, newPayload, policy); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, vol.PayloadSize())
	if err := fs.ReadBlock(7, 3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newPayload) {
		t.Fatal("cache did not see the write")
	}
	persisted, err := f.ReadBlockAt(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(persisted, newPayload) {
		t.Fatal("StegFS partition did not see the write")
	}
	if err := fs.WriteBlock(7, 0, []byte{1, 2}, policy); err == nil {
		t.Fatal("short payload accepted")
	}
	if err := fs.ReadBlock(99, 0, got); err == nil {
		t.Fatal("unregistered ordinal accepted")
	}
	if err := fs.ReadBlock(7, 3, got[:8]); err == nil {
		t.Fatal("short destination accepted")
	}
}

func TestFSDummyReadsAndDecoysTouchStegPartition(t *testing.T) {
	fs, vol, src, _ := newFS(t)
	fak := stegfs.DeriveFAK("p", "/d", vol)
	f, _ := stegfs.CreateFile(vol, fak, "/d", src)
	content := prng.NewFromUint64(10).Bytes(8 * vol.PayloadSize())
	f.WriteAt(content, 0, stegfs.InPlacePolicy{Vol: vol})
	fs.Register(1, f)

	for i := 0; i < 50; i++ {
		if err := fs.DummyRead(); err != nil {
			t.Fatal(err)
		}
	}
	if fs.Stats().DummyReads != 50 {
		t.Fatal("dummy reads not counted")
	}
	// Read all blocks, then read a second file to force more misses.
	// Total distinct blocks (8 + 40) stays within the cache capacity
	// of 64.
	buf := make([]byte, len(content))
	if _, err := fs.ReadAt(1, buf, 0); err != nil {
		t.Fatal(err)
	}
	fak2 := stegfs.DeriveFAK("p", "/d2", vol)
	f2, _ := stegfs.CreateFile(vol, fak2, "/d2", src)
	c2 := prng.NewFromUint64(11).Bytes(40 * vol.PayloadSize())
	f2.WriteAt(c2, 0, stegfs.InPlacePolicy{Vol: vol})
	fs.Register(2, f2)
	buf2 := make([]byte, len(c2))
	if _, err := fs.ReadAt(2, buf2, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2, c2) {
		t.Fatal("second file mismatch")
	}
}

func TestFSCapacityOverflowSurfaces(t *testing.T) {
	// Reading more distinct blocks than the cache capacity must fail
	// loudly with ErrCacheFull, never silently drop blocks.
	fs, vol, src, _ := newFS(t) // capacity 64
	fak := stegfs.DeriveFAK("p", "/big", vol)
	f, _ := stegfs.CreateFile(vol, fak, "/big", src)
	c := prng.NewFromUint64(12).Bytes(120 * vol.PayloadSize())
	if _, err := f.WriteAt(c, 0, stegfs.InPlacePolicy{Vol: vol}); err != nil {
		t.Fatal(err)
	}
	fs.Register(1, f)
	buf := make([]byte, len(c))
	if _, err := fs.ReadAt(1, buf, 0); !errors.Is(err, ErrCacheFull) {
		t.Fatalf("expected ErrCacheFull, got %v", err)
	}
}
