package oblivious

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/race"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// TestAllocBudgets pins the store's hot paths after the zero-alloc
// conversion. Put amortizes every buffer flush and level reshuffle the
// write stream triggers; steady state measures 0 — flush and dump run
// entirely in the store's scratch and the sort's window — and the
// ceiling of 1 is headroom for a map growing at the edge of the
// warm-up. GetInto pins the probe path, whose batched
// scattered read reuses the store's slabs and whose value lands in the
// caller's buffer: on a host whose RSS tracks garbage, a 4 KiB copy per
// hit was the read path's whole footprint.
func TestAllocBudgets(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc ceilings don't hold under -race (the race runtime randomizes sync.Pool reuse)")
	}
	s := benchStore(t, 16, 4)
	val := make([]byte, s.ValueSize())
	// Warm-up: fill past the first full-hierarchy reshuffle so every
	// lazily grown structure (entry freelist, sort window, spare index)
	// reaches its high-water mark.
	for i := 0; i < 4*s.Capacity(); i++ {
		binary.BigEndian.PutUint64(val, uint64(i))
		if err := s.Put(BlockID{File: 1, Index: uint64(i % s.Capacity())}, val); err != nil {
			t.Fatal(err)
		}
	}
	var i uint64
	allocs := testing.AllocsPerRun(512, func() {
		binary.BigEndian.PutUint64(val, i)
		if err := s.Put(BlockID{File: 1, Index: i % uint64(s.Capacity())}, val); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("Put (amortized over flush/reshuffle): %.2f allocs/op", allocs)
	if allocs > 1 {
		t.Errorf("Put = %.2f allocs/op amortized, budget 1", allocs)
	}

	gets := testing.AllocsPerRun(256, func() {
		if _, err := s.GetInto(BlockID{File: 1, Index: i % uint64(s.Capacity())}, val); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("GetInto (probe path, amortized over promotions' flushes): %.2f allocs/op", gets)
	if gets > 4 {
		t.Errorf("GetInto = %.2f allocs/op, budget 4", gets)
	}

	// The FS's single-block reads on the StegFS partition — a decoy
	// re-read of a fetched block and the idle dummy read — carry their
	// device batch in the FS's scratch.
	fs, vol, src, _ := newFS(t)
	f, err := stegfs.CreateFile(vol, stegfs.DeriveFAK("u", "/a", vol), "/a", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 4*vol.PayloadSize()), 0, stegfs.InPlacePolicy{Vol: vol}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Register(1, f); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReadBlock(1, 0, make([]byte, vol.PayloadSize())); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func() error{"decoy read": fs.decoyRead, "DummyRead": fs.DummyRead} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := read(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs/op", name, allocs)
		if allocs != 0 {
			t.Errorf("%s = %.1f allocs/op, budget 0", name, allocs)
		}
	}
}

// TestSlotTagZeroAlloc pins the slot tag's floor: the mask under a
// slot's IV and the hash of a full slot payload allocate nothing.
func TestSlotTagZeroAlloc(t *testing.T) {
	tag := newGMACTag(sealer.DeriveKey([]byte("k"), "tag"))
	iv := new([sealer.IVSize]byte)
	data := make([]byte, 4096-sealer.IVSize-8)
	allocs := testing.AllocsPerRun(100, func() { tag.Mask(iv); tag.Hash(data) })
	if allocs != 0 {
		t.Fatalf("slot tag allocated %.1f per op, want 0", allocs)
	}
}

// runPoolOracle executes a fixed write/read workload against a fresh
// store and returns the final device image plus every Get result. The
// flush path places buffer survivors in version order (not map order),
// so the sealed image is a deterministic function of the RNG stream —
// which is exactly what lets a digest pin the full image.
func runPoolOracle(t *testing.T) ([]byte, [][]byte) {
	t.Helper()
	dev := blockdev.NewMem(512, Footprint(16, 4)+8)
	s, err := New(Config{
		Dev:          dev,
		Key:          sealer.DeriveKey([]byte("pool-oracle"), "obli"),
		BufferBlocks: 16,
		Levels:       4,
		RNG:          prng.NewFromUint64(99),
	})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, s.ValueSize())
	for i := 0; i < 3*s.Capacity(); i++ {
		binary.BigEndian.PutUint64(val, uint64(i))
		if err := s.Put(BlockID{File: 1, Index: uint64(i % s.Capacity())}, val); err != nil {
			t.Fatal(err)
		}
	}
	var gets [][]byte
	for i := 0; i < s.Capacity(); i++ {
		v, ok, err := s.Get(BlockID{File: 1, Index: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			gets = append(gets, append([]byte(nil), v...))
		} else {
			gets = append(gets, nil)
		}
	}
	return dev.Snapshot(), gets
}

// poolOracleDigest is the SHA-256 of runPoolOracle's sealed image and
// every Get it returned. It was re-pinned when the slot tag became
// GMAC under the slot's IV: every slot's bytes moved, while the RNG
// draws, the block I/O and the values read back did not. It was
// re-pinned again when the merge fan-in became the smallest that takes
// the fewest passes: at B = 16 some dumps merge at a smaller fan-in in
// as many passes, so the intermediate runs a dump leaves in the scratch
// region moved, while every level's slots and the values read back did
// not. It was re-pinned again when a cascade into an empty level became
// one sort and a refill: at (16, 4) the cascades of m = 1 and 2 draw
// their nonces, filler and IVs in a new order and leave different
// slots, while every value read back did not move. The default and the
// purego builds both meet it.
const poolOracleDigest = "8671871e757cc0ef20b319b7c8d9c5923b793441c41d76d069f4367e62607fb4"

// TestPoolOracleDigest pins the store's sealed image and read-back
// values for a fixed seed against history. A change that means to move
// them regenerates the constant and says why.
func TestPoolOracleDigest(t *testing.T) {
	img, gets := runPoolOracle(t)
	h := sha256.New()
	h.Write(img)
	for _, v := range gets {
		if v == nil {
			h.Write([]byte{0})
			continue
		}
		h.Write([]byte{1})
		h.Write(v)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != poolOracleDigest {
		t.Errorf("pool oracle digest %s, want %s", got, poolOracleDigest)
	}
}
