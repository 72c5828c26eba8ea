package sealer

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"math/rand"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/race"
)

// TestSealMatchesFreshCBC pins the block kernels (and, under the
// purego tag, the pooled-mode IV-folding path) against the textbook
// construction: a fresh cipher.NewCBCEncrypter per block. The sealed
// bytes are the on-disk format — any divergence would silently corrupt
// every existing volume — so this runs many blocks through one sealer
// and checks each against an independent fresh-mode seal.
func TestSealMatchesFreshCBC(t *testing.T) {
	for _, bs := range []int{IVSize + aes.BlockSize, 512, 4096} {
		key := DeriveKey([]byte("cbc-differential"), "seal")
		s, err := New(key, bs)
		if err != nil {
			t.Fatal(err)
		}
		block, _ := aes.NewCipher(key[:])
		rng := rand.New(rand.NewSource(7))
		data := make([]byte, s.DataSize())
		iv := make([]byte, IVSize)
		got := make([]byte, bs)
		want := make([]byte, bs)
		for i := 0; i < 64; i++ {
			rng.Read(data)
			rng.Read(iv)
			if err := s.Seal(got, iv, data); err != nil {
				t.Fatal(err)
			}
			copy(want[:IVSize], iv)
			cipher.NewCBCEncrypter(block, iv).CryptBlocks(want[IVSize:], data)
			if !bytes.Equal(got, want) {
				t.Fatalf("bs=%d block %d: pooled seal diverges from fresh CBC", bs, i)
			}
			// And the decrypt side, against a fresh decrypter.
			opened := make([]byte, s.DataSize())
			if err := s.Open(opened, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(opened, data) {
				t.Fatalf("bs=%d block %d: pooled open does not invert seal", bs, i)
			}
		}
	}
}

// TestSealOpenInterleaved drives Seal and Open in a mixed order so the
// chained modes see every state transition (seal-after-open and
// open-after-seal both fold the previous chain correctly).
func TestSealOpenInterleaved(t *testing.T) {
	key := DeriveKey([]byte("cbc-differential"), "interleave")
	s, err := New(key, 512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	type sealed struct{ raw, data []byte }
	var history []sealed
	for i := 0; i < 128; i++ {
		if rng.Intn(2) == 0 || len(history) == 0 {
			data := make([]byte, s.DataSize())
			iv := make([]byte, IVSize)
			rng.Read(data)
			rng.Read(iv)
			raw := make([]byte, 512)
			if err := s.Seal(raw, iv, data); err != nil {
				t.Fatal(err)
			}
			history = append(history, sealed{raw, data})
		} else {
			pick := history[rng.Intn(len(history))]
			out := make([]byte, s.DataSize())
			if err := s.Open(out, pick.raw); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, pick.data) {
				t.Fatalf("op %d: interleaved open returned wrong plaintext", i)
			}
		}
	}
}

// TestSealOpenZeroAlloc pins the allocation floors of the block
// cipher's entry points: a warm Seal/Open cycle, an eight-lane
// SealMany and a cross-sealer ResealLanes allocate nothing. On a host
// whose RSS tracks garbage, one allocation per block is a regression
// of peak memory however fast the call got.
func TestSealOpenZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc floors don't hold under -race (the race runtime randomizes sync.Pool reuse)")
	}
	key := DeriveKey([]byte("cbc-differential"), "allocs")
	s, err := New(key, 4096)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, s.DataSize())
	raw := make([]byte, 4096)
	iv := make([]byte, IVSize)
	out := make([]byte, s.DataSize())
	if err := s.Seal(raw, iv, data); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Seal(raw, iv, data); err != nil {
			t.Fatal(err)
		}
		if err := s.Open(out, raw); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Seal+Open allocated %.1f per op, want 0", allocs)
	}

	const lanes = 8
	other, err := New(DeriveKey([]byte("cbc-differential"), "allocs-2"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	raws, datas := blockdev.AllocBlocks(lanes, 4096), blockdev.AllocBlocks(lanes, s.DataSize())
	seals := make([]*Sealer, lanes)
	for i := range seals {
		seals[i] = []*Sealer{s, other}[i%2]
	}
	ivs := make([]byte, lanes*IVSize)
	nextIV := func(dst []byte) { copy(dst, iv) }
	batch := func() {
		if err := s.SealMany(raws, nextIV, datas); err != nil {
			t.Fatal(err)
		}
		if err := ResealLanes(seals, raws, ivs); err != nil {
			t.Fatal(err)
		}
	}
	batch() // warm the scratch pool
	if allocs := testing.AllocsPerRun(50, batch); allocs > 0 {
		t.Fatalf("SealMany(8)+ResealLanes(8) allocated %.1f per op, want 0", allocs)
	}
}

// TestBatchesMatchFreshCBC holds every batched entry point, across lane
// counts on both sides of each eight-lane group boundary, to the
// fresh-mode construction block by block — including ResealLanes with
// a different key on every lane, the shape of a dummy burst.
func TestBatchesMatchFreshCBC(t *testing.T) {
	const bs = 512
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= 17; n++ {
		keys := make([]Key, n)
		seals := make([]*Sealer, n)
		for i := range seals {
			keys[i] = DeriveKey([]byte("batch-differential"), fmt.Sprint(n, i))
			s, err := New(keys[i], bs)
			if err != nil {
				t.Fatal(err)
			}
			seals[i] = s
		}
		field := seals[0].DataSize()
		datas, raws := blockdev.AllocBlocks(n, field), blockdev.AllocBlocks(n, bs)
		ivs := make([]byte, n*IVSize)
		rng.Read(ivs)
		for _, d := range datas {
			rng.Read(d)
		}
		fresh := func(key Key, iv, data []byte) []byte {
			block, _ := aes.NewCipher(key[:])
			out := make([]byte, bs)
			copy(out, iv)
			cipher.NewCBCEncrypter(block, iv).CryptBlocks(out[IVSize:], data)
			return out
		}

		// SealMany under one key, IVs served in index order.
		next := 0
		nextIV := func(dst []byte) { copy(dst, ivs[next*IVSize:(next+1)*IVSize]); next++ }
		if err := seals[0].SealMany(raws, nextIV, datas); err != nil {
			t.Fatal(err)
		}
		for i := range raws {
			if !bytes.Equal(raws[i], fresh(keys[0], ivs[i*IVSize:(i+1)*IVSize], datas[i])) {
				t.Fatalf("n=%d: SealMany block %d diverges from fresh CBC", n, i)
			}
		}
		opened := blockdev.AllocBlocks(n, field)
		if err := seals[0].OpenMany(opened, raws); err != nil {
			t.Fatal(err)
		}
		for i := range opened {
			if !bytes.Equal(opened[i], datas[i]) {
				t.Fatalf("n=%d: OpenMany block %d does not invert SealMany", n, i)
			}
		}

		// ResealLanes: seal each block under its own key first.
		for i := range raws {
			if err := seals[i].Seal(raws[i], ivs[i*IVSize:(i+1)*IVSize], datas[i]); err != nil {
				t.Fatal(err)
			}
		}
		fresher := make([]byte, n*IVSize)
		rng.Read(fresher)
		if err := ResealLanes(seals, raws, fresher); err != nil {
			t.Fatal(err)
		}
		for i := range raws {
			if !bytes.Equal(raws[i], fresh(keys[i], fresher[i*IVSize:(i+1)*IVSize], datas[i])) {
				t.Fatalf("n=%d: ResealLanes block %d diverges from fresh CBC under its own key", n, i)
			}
		}
	}
}
