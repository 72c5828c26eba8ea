package stegfs

import (
	"bytes"
	"os"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/sealer"
)

// TestCrossVersionImage opens testdata/parent_volume.img — a 64-block
// volume formatted, populated and saved by the commit before the block
// kernels (stdlib CBC, SHA-256 fill) — and checks the on-disk format in
// both directions: every block that commit sealed opens here to the
// content it wrote, and sealing that content here under the same key
// and IV reproduces the stored block byte for byte, so what this build
// writes opens there.
//
// The image was generated by, at that commit:
//
//	Format(NewMem(512, 64), {KDFIterations: 4, FillSeed: "cross-version-fixture"})
//	CreateFile(DeriveFAK("fixture-pass", "/fixture", vol), BitmapSource(prng "cross-version-alloc"))
//	WriteAt(prng("cross-version-content").Bytes(20*payload+123), 0, InPlacePolicy); Save
func TestCrossVersionImage(t *testing.T) {
	img, err := os.ReadFile("testdata/parent_volume.img")
	if err != nil {
		t.Fatal(err)
	}
	const bs = 512
	dev := blockdev.NewMem(bs, uint64(len(img)/bs))
	for i := uint64(0); i < dev.NumBlocks(); i++ {
		if err := dev.WriteBlock(i, img[i*bs:(i+1)*bs]); err != nil {
			t.Fatal(err)
		}
	}
	vol, err := Open(dev, prng.NewFromUint64(2))
	if err != nil {
		t.Fatal(err)
	}
	src := NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(1))
	f, err := OpenFile(vol, DeriveFAK("fixture-pass", "/fixture", vol), "/fixture", src)
	if err != nil {
		t.Fatalf("a file the parent commit wrote does not open: %v", err)
	}
	want := prng.New([]byte("cross-version-content")).Bytes(20*vol.PayloadSize() + 123)
	got := make([]byte, len(want))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(want) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content the parent commit sealed reads back different")
	}

	reseal := func(what string, loc uint64, seal *sealer.Sealer) {
		t.Helper()
		stored, again, plain := make([]byte, bs), make([]byte, bs), make([]byte, vol.PayloadSize())
		if err := dev.ReadBlock(loc, stored); err != nil {
			t.Fatal(err)
		}
		if err := seal.Open(plain, stored); err != nil {
			t.Fatal(err)
		}
		if err := seal.Seal(again, stored[:sealer.IVSize], plain); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, stored) {
			t.Fatalf("%s at block %d: this build seals the same (key, IV, payload) to different bytes", what, loc)
		}
	}
	reseal("header", f.HeaderLoc(), f.HeaderSealer())
	for _, loc := range f.BlockLocs() {
		reseal("data block", loc, f.ContentSealer())
	}
}
