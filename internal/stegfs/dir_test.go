package stegfs

import (
	"errors"
	"testing"

	"steghide/internal/prng"
	"steghide/internal/sealer"
)

func TestDirRoundTrip(t *testing.T) {
	vol, src := testVolume(t, 1024)
	fak := DeriveFAK("u", "/home", vol)
	d, err := CreateDir(vol, fak, "/home", src)
	if err != nil {
		t.Fatal(err)
	}
	policy := InPlacePolicy{Vol: vol}
	d.Add("/home/a")
	d.Add("/home/b")
	d.Add("/home/a") // idempotent
	if d.Len() != 2 || !d.Has("/home/a") {
		t.Fatalf("len=%d", d.Len())
	}
	if err := d.Save(policy); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(vol, fak, "/home", src)
	if err != nil {
		t.Fatal(err)
	}
	got := re.List()
	if len(got) != 2 || got[0] != "/home/a" || got[1] != "/home/b" {
		t.Fatalf("list %v", got)
	}
	if !re.Remove("/home/a") || re.Remove("/home/a") {
		t.Fatal("remove semantics")
	}
	if err := re.Save(policy); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenDir(vol, fak, "/home", src)
	if err != nil {
		t.Fatal(err)
	}
	if re2.Len() != 1 || re2.Has("/home/a") {
		t.Fatalf("after remove: %v", re2.List())
	}
}

func TestDirShrinkNoPhantoms(t *testing.T) {
	vol, src := testVolume(t, 1024)
	fak := DeriveFAK("u", "/big", vol)
	d, err := CreateDir(vol, fak, "/big", src)
	if err != nil {
		t.Fatal(err)
	}
	policy := InPlacePolicy{Vol: vol}
	rng := prng.NewFromUint64(1)
	for i := 0; i < 50; i++ {
		d.Add("/big/" + string(rune('a'+rng.Intn(26))) + string(rune('a'+i%26)) + "-long-name-to-fill-blocks")
	}
	if err := d.Save(policy); err != nil {
		t.Fatal(err)
	}
	// Shrink drastically and verify no stale entries leak back.
	for _, n := range d.List()[1:] {
		d.Remove(n)
	}
	if err := d.Save(policy); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(vol, fak, "/big", src)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Fatalf("phantom entries after shrink: %v", re.List())
	}
}

func TestOpenDirOnRegularFileFails(t *testing.T) {
	vol, src := testVolume(t, 512)
	fak := DeriveFAK("u", "/file", vol)
	f, err := CreateFile(vol, fak, "/file", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("just bytes"), 0, InPlacePolicy{Vol: vol}); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(vol, fak, "/file", src); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("regular file opened as directory: %v", err)
	}
	if _, err := OpenDir(vol, DeriveFAK("u", "/no", vol), "/no", src); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing dir: %v", err)
	}
}

func TestDirUnderRelocatingPolicy(t *testing.T) {
	// Directories are files: saving one through a relocating policy
	// must keep it loadable (their blocks move like anyone else's).
	vol, src := testVolume(t, 1024)
	fak := DeriveFAK("u", "/mv", vol)
	d, err := CreateDir(vol, fak, "/mv", src)
	if err != nil {
		t.Fatal(err)
	}
	reloc := relocatingPolicy{vol: vol, src: src, rng: prng.NewFromUint64(3)}
	for round := 0; round < 10; round++ {
		d.Add("/mv/child-" + string(rune('0'+round)))
		if err := d.Save(reloc); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenDir(vol, fak, "/mv", src)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 10 {
		t.Fatalf("lost entries across relocations: %v", re.List())
	}
}

// relocatingPolicy is a minimal Figure-6-style policy for tests:
// always move the block to a fresh random location.
type relocatingPolicy struct {
	vol *Volume
	src *BitmapSource
	rng *prng.PRNG
}

func (p relocatingPolicy) Update(locs []uint64, _ uint64, _ *sealer.Sealer, sealed [][]byte) error {
	for i, loc := range locs {
		newLoc, err := p.src.AcquireRandom()
		if err != nil {
			return err
		}
		if err := p.vol.WriteRaw(newLoc, sealed[i]); err != nil {
			p.src.Release(newLoc)
			return err
		}
		p.src.Release(loc)
		locs[i] = newLoc
	}
	return nil
}
