package stegfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
)

// testVolume formats a small volume (block size 128 so the indirect
// paths are exercised by small files) and returns it with a source.
func testVolume(t *testing.T, nBlocks uint64) (*Volume, *BitmapSource) {
	t.Helper()
	dev := blockdev.NewMem(128, nBlocks)
	vol, err := Format(dev, FormatOptions{KDFIterations: 4, FillSeed: []byte("t")})
	if err != nil {
		t.Fatal(err)
	}
	src := NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(1))
	return vol, src
}

func TestFormatAndOpen(t *testing.T) {
	dev := blockdev.NewMem(128, 256)
	vol, err := Format(dev, FormatOptions{KDFIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if vol.PayloadSize() != 128-16 {
		t.Fatalf("payload %d", vol.PayloadSize())
	}
	re, err := Open(dev, prng.NewFromUint64(2))
	if err != nil {
		t.Fatal(err)
	}
	if re.NumBlocks() != vol.NumBlocks() || re.KDFIterations() != vol.KDFIterations() {
		t.Fatal("geometry lost across reopen")
	}
	if !bytes.Equal(re.Salt(), vol.Salt()) {
		t.Fatal("salt lost across reopen")
	}
}

func TestFormatRejectsBadGeometry(t *testing.T) {
	if _, err := Format(blockdev.NewMem(64, 256), FormatOptions{}); err == nil {
		t.Fatal("tiny block size accepted")
	}
	if _, err := Format(blockdev.NewMem(136, 256), FormatOptions{}); err == nil {
		t.Fatal("unaligned data field accepted")
	}
	if _, err := Format(blockdev.NewMem(128, 4), FormatOptions{}); err == nil {
		t.Fatal("tiny volume accepted")
	}
}

func TestOpenRejectsCorruptSuperblock(t *testing.T) {
	dev := blockdev.NewMem(128, 64)
	if _, err := Format(dev, FormatOptions{KDFIterations: 4}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	dev.ReadBlock(0, buf)
	orig := append([]byte(nil), buf...)

	buf[0] ^= 0xFF // magic
	dev.WriteBlock(0, buf)
	if _, err := Open(dev, prng.NewFromUint64(2)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}

	copy(buf, orig)
	buf[30] ^= 0x01 // salt byte → checksum mismatch
	dev.WriteBlock(0, buf)
	if _, err := Open(dev, prng.NewFromUint64(2)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad checksum: %v", err)
	}

	copy(buf, orig)
	buf[11] = 99 // version
	dev.WriteBlock(0, buf)
	if _, err := Open(dev, prng.NewFromUint64(2)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad version: %v", err)
	}
}

func TestFormatFillLooksRandom(t *testing.T) {
	// After format every steg block should be high-entropy noise:
	// check no block is all-zero and blocks differ from each other.
	vol, _ := testVolume(t, 64)
	buf1 := make([]byte, 128)
	buf2 := make([]byte, 128)
	zero := make([]byte, 128)
	for i := uint64(1); i < 64; i++ {
		if err := blockdev.ReadBlock(vol.Device(), i, buf1); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(buf1, zero) {
			t.Fatalf("block %d left zeroed by format", i)
		}
	}
	blockdev.ReadBlock(vol.Device(), 1, buf1)
	blockdev.ReadBlock(vol.Device(), 2, buf2)
	if bytes.Equal(buf1, buf2) {
		t.Fatal("fill repeats across blocks")
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	vol, src := testVolume(t, 512)
	fak := DeriveFAK("passphrase", "/secret/report.doc", vol)
	f, err := CreateFile(vol, fak, "/secret/report.doc", src)
	if err != nil {
		t.Fatal(err)
	}
	policy := InPlacePolicy{Vol: vol}
	msg := []byte("the quick brown fox jumps over the lazy dog")
	if _, err := f.WriteAt(msg, 0, policy); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a fresh source (simulating a new session).
	src2 := NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(2))
	g, err := OpenFile(vol, fak, "/secret/report.doc", src2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != uint64(len(msg)) {
		t.Fatalf("size %d, want %d", g.Size(), len(msg))
	}
	got := make([]byte, len(msg))
	if n, err := g.ReadAt(got, 0); err != nil || n != len(msg) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("content mismatch: %q", got)
	}
}

func TestOpenWrongKeyOrPathIsNotFound(t *testing.T) {
	vol, src := testVolume(t, 512)
	fak := DeriveFAK("right", "/a", vol)
	f, err := CreateFile(vol, fak, "/a", src)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("data"), 0, InPlacePolicy{Vol: vol})
	f.Close()

	wrong := DeriveFAK("wrong", "/a", vol)
	if _, err := OpenFile(vol, wrong, "/a", src); !errors.Is(err, ErrNotFound) {
		t.Fatalf("wrong key: %v", err)
	}
	otherPath := DeriveFAK("right", "/b", vol)
	if _, err := OpenFile(vol, otherPath, "/b", src); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing file: %v", err)
	}
	// Right key, wrong path binding: FAK for /a used with path /b.
	if _, err := OpenFile(vol, fak, "/b", src); !errors.Is(err, ErrNotFound) {
		t.Fatalf("path binding: %v", err)
	}
}

func TestLargeFileIndirectBlocks(t *testing.T) {
	// payload 112 → 3 direct, 14 per pointer block. 100 blocks forces
	// the double-indirect path (3 + 14 + 83).
	vol, src := testVolume(t, 2048)
	fak := DeriveFAK("p", "/big", vol)
	f, err := CreateFile(vol, fak, "/big", src)
	if err != nil {
		t.Fatal(err)
	}
	policy := InPlacePolicy{Vol: vol}
	rng := prng.NewFromUint64(7)
	data := rng.Bytes(100 * vol.PayloadSize())
	if _, err := f.WriteAt(data, 0, policy); err != nil {
		t.Fatal(err)
	}
	if f.NumBlocks() != 100 {
		t.Fatalf("blocks = %d", f.NumBlocks())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := OpenFile(vol, fak, "/big", src)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := g.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large file content mismatch")
	}
}

func TestFileTooLarge(t *testing.T) {
	vol, src := testVolume(t, 512)
	fak := DeriveFAK("p", "/huge", vol)
	f, err := CreateFile(vol, fak, "/huge", src)
	if err != nil {
		t.Fatal(err)
	}
	max := vol.MaxFileBlocks()
	if err := f.Resize((max+1)*uint64(vol.PayloadSize()), InPlacePolicy{Vol: vol}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize resize: %v", err)
	}
}

func TestResizeShrinkReleasesBlocks(t *testing.T) {
	vol, src := testVolume(t, 2048)
	fak := DeriveFAK("p", "/f", vol)
	f, err := CreateFile(vol, fak, "/f", src)
	if err != nil {
		t.Fatal(err)
	}
	policy := InPlacePolicy{Vol: vol}
	data := prng.NewFromUint64(3).Bytes(50 * vol.PayloadSize())
	if _, err := f.WriteAt(data, 0, policy); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(); err != nil {
		t.Fatal(err)
	}
	usedBefore := usedCount(src)
	if err := f.Resize(uint64(2*vol.PayloadSize()), policy); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(); err != nil {
		t.Fatal(err)
	}
	usedAfter := usedCount(src)
	if usedAfter >= usedBefore {
		t.Fatalf("shrink did not release blocks: %d -> %d", usedBefore, usedAfter)
	}
	// Content within the new size must be intact.
	got := make([]byte, 2*vol.PayloadSize())
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:len(got)]) {
		t.Fatal("shrink corrupted remaining content")
	}
}

func TestPartialAndUnalignedIO(t *testing.T) {
	vol, src := testVolume(t, 1024)
	fak := DeriveFAK("p", "/u", vol)
	f, err := CreateFile(vol, fak, "/u", src)
	if err != nil {
		t.Fatal(err)
	}
	policy := InPlacePolicy{Vol: vol}
	ps := vol.PayloadSize()

	// Build a reference image with scattered unaligned writes.
	img := make([]byte, 5*ps)
	rng := prng.NewFromUint64(12)
	writes := []struct{ off, n int }{
		{0, 10}, {ps - 3, 7}, {2*ps + 5, ps}, {17, 3 * ps}, {5*ps - 9, 9},
	}
	for _, w := range writes {
		chunk := rng.Bytes(w.n)
		copy(img[w.off:], chunk)
		if _, err := f.WriteAt(chunk, uint64(w.off), policy); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, len(img))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("unaligned write pattern mismatch")
	}
	// Read past EOF truncates.
	over := make([]byte, 100)
	n, err := f.ReadAt(over, uint64(len(img))-10)
	if err != nil || n != 10 {
		t.Fatalf("past-EOF read = %d, %v", n, err)
	}
	// Read entirely past EOF returns 0.
	n, err = f.ReadAt(over, uint64(len(img))+5)
	if err != nil || n != 0 {
		t.Fatalf("beyond-EOF read = %d, %v", n, err)
	}
}

func TestDeleteMakesFileUnopenable(t *testing.T) {
	vol, src := testVolume(t, 512)
	fak := DeriveFAK("p", "/gone", vol)
	f, err := CreateFile(vol, fak, "/gone", src)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("short-lived"), 0, InPlacePolicy{Vol: vol})
	f.Save()
	used := usedCount(src)
	if err := f.Delete(); err != nil {
		t.Fatal(err)
	}
	if usedCount(src) >= used {
		t.Fatal("delete did not release blocks")
	}
	if _, err := OpenFile(vol, fak, "/gone", src); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted file still opens: %v", err)
	}
}

func TestDummyFile(t *testing.T) {
	vol, src := testVolume(t, 512)
	fak := DeriveFAK("user", "/dummy/0", vol)
	df, err := CreateDummyFile(vol, fak, "/dummy/0", src, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !df.IsDummy() || df.NumBlocks() != 20 {
		t.Fatalf("dummy=%v blocks=%d", df.IsDummy(), df.NumBlocks())
	}
	if _, err := df.WriteAt([]byte("x"), 0, InPlacePolicy{Vol: vol}); err == nil {
		t.Fatal("write to dummy file accepted")
	}
	// Reopen: flag and map survive.
	g, err := OpenFile(vol, fak, "/dummy/0", src)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsDummy() || g.NumBlocks() != 20 {
		t.Fatal("dummy metadata lost across reopen")
	}
}

// usedCount returns the number of live blocks in src's steg space.
func usedCount(src *BitmapSource) uint64 {
	src.mu.Lock()
	defer src.mu.Unlock()
	return src.used.Count() - src.first
}

func TestRelocateBlockUpdatesMap(t *testing.T) {
	vol, src := testVolume(t, 512)
	fak := DeriveFAK("p", "/rel", vol)
	f, _ := CreateFile(vol, fak, "/rel", src)
	f.WriteAt(make([]byte, 2*vol.PayloadSize()), 0, InPlacePolicy{Vol: vol})
	if err := f.relocateBlock(5, 1); err == nil {
		t.Fatal("out-of-range relocate accepted")
	}
	old, _ := f.BlockLoc(0)
	_ = old
	if err := f.relocateBlock(0, 42); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.BlockLoc(0); got != 42 {
		t.Fatal("relocate ignored")
	}
	if !f.dirty {
		t.Fatal("relocate did not mark dirty")
	}
}

func TestHeaderCandidatesInSpace(t *testing.T) {
	vol, _ := testVolume(t, 512)
	fak := DeriveFAK("p", "/c", vol)
	for i := 0; i < HeaderProbeLimit; i++ {
		c := fak.HeaderCandidate(i, vol.FirstDataBlock(), vol.NumBlocks())
		if c < vol.FirstDataBlock() || c >= vol.NumBlocks() {
			t.Fatalf("candidate %d = %d out of steg space", i, c)
		}
	}
	// Candidates must differ across FAKs.
	other := DeriveFAK("q", "/c", vol)
	same := 0
	for i := 0; i < 8; i++ {
		if fak.HeaderCandidate(i, vol.FirstDataBlock(), vol.NumBlocks()) ==
			other.HeaderCandidate(i, vol.FirstDataBlock(), vol.NumBlocks()) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("candidate sequences identical across FAKs")
	}
}

func TestBitmapSource(t *testing.T) {
	src := NewBitmapSource(1, 101, prng.NewFromUint64(5))
	first, n := src.SpaceBounds()
	if first != 1 || n != 101 {
		t.Fatal("bounds")
	}
	if src.FreeCount() != 100 {
		t.Fatalf("free = %d", src.FreeCount())
	}
	if src.IsFree(0) {
		t.Fatal("reserved block reported free")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		loc, err := src.AcquireRandom()
		if err != nil {
			t.Fatal(err)
		}
		if loc < 1 || loc >= 101 || seen[loc] {
			t.Fatalf("bad acquire %d", loc)
		}
		seen[loc] = true
	}
	if _, err := src.AcquireRandom(); !errors.Is(err, ErrVolumeFull) {
		t.Fatalf("full volume: %v", err)
	}
	src.Release(50)
	if loc, err := src.AcquireRandom(); err != nil || loc != 50 {
		t.Fatalf("re-acquire after release = %d, %v", loc, err)
	}
	src.Release(0) // reserved: must stay used
	if src.IsFree(0) {
		t.Fatal("released reserved block")
	}
	if src.Acquire(200) || src.IsFree(200) {
		t.Fatal("out-of-range acquire")
	}
}

func TestAcquireRandomUniform(t *testing.T) {
	// Acquire (and re-release) many times; the distribution over the
	// space must be uniform — this is what makes creation placement
	// indistinguishable from relocation targets.
	src := NewBitmapSource(1, 1025, prng.NewFromUint64(9))
	counts := make([]uint64, 16)
	for i := 0; i < 32000; i++ {
		loc, err := src.AcquireRandom()
		if err != nil {
			t.Fatal(err)
		}
		counts[(loc-1)*16/1024]++
		src.Release(loc)
	}
	// Chi-square against uniform over 16 bins, df=15, p=0.001 → 37.7.
	expected := 32000.0 / 16
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 37.7 {
		t.Fatalf("allocation skewed: chi2=%.1f counts=%v", chi2, counts)
	}
}

func TestQuickWriteReadAnywhere(t *testing.T) {
	vol, src := testVolume(t, 2048)
	fak := DeriveFAK("p", "/q", vol)
	f, err := CreateFile(vol, fak, "/q", src)
	if err != nil {
		t.Fatal(err)
	}
	policy := InPlacePolicy{Vol: vol}
	mirror := make([]byte, 0, 4096)
	check := func(seed uint64, offRaw uint16, nRaw uint16) bool {
		off := uint64(offRaw) % 2000
		n := int(nRaw)%300 + 1
		chunk := prng.NewFromUint64(seed).Bytes(n)
		if _, err := f.WriteAt(chunk, off, policy); err != nil {
			return false
		}
		if int(off)+n > len(mirror) {
			grown := make([]byte, int(off)+n)
			copy(grown, mirror)
			mirror = grown
		}
		copy(mirror[off:], chunk)
		got := make([]byte, len(mirror))
		if _, err := f.ReadAt(got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, mirror)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderEncodeDecodeRoundTrip(t *testing.T) {
	vol, _ := testVolume(t, 256)
	fak := DeriveFAK("p", "/h", vol)
	h := &header{
		flags:      flagDummy,
		fileSize:   123456,
		blockCount: 3,
		pathHash:   PathHash("/h"),
		single:     42,
		double:     77,
		direct:     make([]uint64, vol.directSlots()),
	}
	h.direct[0], h.direct[1], h.direct[2] = 5, 9, 13
	payload := vol.encodeHeader(h, fak.HeaderKey)
	got, err := vol.decodeHeader(payload, fak.HeaderKey)
	if err != nil {
		t.Fatal(err)
	}
	if got.flags != h.flags || got.fileSize != h.fileSize || got.blockCount != h.blockCount ||
		got.single != h.single || got.double != h.double || got.direct[2] != 13 || got.pathHash != h.pathHash {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	// Tampered payload fails closed.
	payload[20] ^= 1
	if _, err := vol.decodeHeader(payload, fak.HeaderKey); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tampered header: %v", err)
	}
}

func TestDeriveFAKDeterministic(t *testing.T) {
	vol, _ := testVolume(t, 256)
	a := DeriveFAK("p", "/x", vol)
	b := DeriveFAK("p", "/x", vol)
	if a != b {
		t.Fatal("FAK derivation not deterministic")
	}
	c := DeriveFAK("p", "/y", vol)
	if a.HeaderKey == c.HeaderKey || a.ContentKey == c.ContentKey || a.Locator == c.Locator {
		t.Fatal("FAKs for different paths must differ entirely")
	}
}

func TestVolumeFullOnCreate(t *testing.T) {
	vol, src := testVolume(t, 16)
	// Exhaust the space.
	for {
		if _, err := src.AcquireRandom(); err != nil {
			break
		}
	}
	fak := DeriveFAK("p", "/full", vol)
	if _, err := CreateFile(vol, fak, "/full", src); !errors.Is(err, ErrVolumeFull) {
		t.Fatalf("create on full volume: %v", err)
	}
}
