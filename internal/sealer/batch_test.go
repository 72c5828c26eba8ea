package sealer

import (
	"sync"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"

	"steghide/internal/race"
)

// sealFixtures builds n payload blocks and a deterministic IV source.
func sealFixtures(s *Sealer, n int, seed uint64) (payloads [][]byte, nextIV func([]byte)) {
	rng := prng.NewFromUint64(seed)
	payloads = blockdev.AllocBlocks(n, s.DataSize())
	for _, p := range payloads {
		rng.Read(p)
	}
	ivRNG := prng.NewFromUint64(seed ^ 0xABCD)
	return payloads, func(iv []byte) { ivRNG.Read(iv) }
}

// TestBatchRejectsMismatchedLengths pins the whole-batch-first
// validation contract of the batch methods: a malformed batch fails
// before any buffer is touched or IV drawn.
func TestBatchRejectsMismatchedLengths(t *testing.T) {
	const bs = 64
	s := mustSealer(t, bs)
	good := blockdev.AllocBlocks(3, bs)
	short := [][]byte{make([]byte, bs), make([]byte, bs-1), make([]byte, bs)}
	payloads := blockdev.AllocBlocks(3, s.DataSize())
	badPayloads := [][]byte{payloads[0], payloads[1][:4], payloads[2]}
	ivDrawn := 0
	countIV := func(iv []byte) { ivDrawn++ }

	cases := []struct {
		name string
		fn   func() error
	}{
		{"SealMany/count", func() error { return s.SealMany(good, countIV, payloads[:2]) }},
		{"SealMany/dst", func() error { return s.SealMany(short, countIV, payloads) }},
		{"SealMany/data", func() error { return s.SealMany(good, countIV, badPayloads) }},
		{"OpenMany/count", func() error { return s.OpenMany(payloads[:1], good) }},
		{"OpenMany/raw", func() error { return s.OpenMany(payloads, short) }},
		{"ResealMany/raw", func() error { return s.ResealMany(short, countIV) }},
		{"ResealLanes/raw", func() error { return ResealLanes([]*Sealer{s, s, s}, short, make([]byte, 3*IVSize)) }},
		{"ResealLanes/ivs", func() error { return ResealLanes([]*Sealer{s, s, s}, good, make([]byte, 2*IVSize)) }},
		{"ResealLanes/nil", func() error { return ResealLanes([]*Sealer{s, nil, s}, good, make([]byte, 3*IVSize)) }},
	}
	for _, tc := range cases {
		if err := tc.fn(); err == nil {
			t.Errorf("%s: malformed batch accepted", tc.name)
		}
	}
	if ivDrawn != 0 {
		t.Errorf("malformed batches drew %d IVs; validation must precede the RNG", ivDrawn)
	}
}

// TestBatchZeroLength pins that empty batches are no-ops that succeed
// without drawing IVs.
func TestBatchZeroLength(t *testing.T) {
	s := mustSealer(t, 64)
	drew := false
	iv := func([]byte) { drew = true }
	for name, fn := range map[string]func() error{
		"SealMany":    func() error { return s.SealMany(nil, iv, nil) },
		"OpenMany":    func() error { return s.OpenMany(nil, nil) },
		"ResealMany":  func() error { return s.ResealMany(nil, iv) },
		"ResealLanes": func() error { return ResealLanes(nil, nil, nil) },
	} {
		if err := fn(); err != nil {
			t.Errorf("%s(empty): %v", name, err)
		}
	}
	if drew {
		t.Error("empty batch drew an IV")
	}
}

// TestSealerConcurrentBatches pins that one Sealer is safe to drive
// from many goroutines at once — sessions and the cover daemon share a
// file's sealer — with Seal/Open/Reseal singletons and batches all
// sharing the scratch pool, under the race detector.
func TestSealerConcurrentBatches(t *testing.T) {
	const bs = 256
	s := mustSealer(t, bs)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payloads, nextIV := sealFixtures(s, 16, uint64(g))
			raws := blockdev.AllocBlocks(16, bs)
			for round := 0; round < 20; round++ {
				var err error
				if round%2 == 0 {
					err = s.SealMany(raws, nextIV, payloads)
				} else {
					err = s.ResealMany(raws, nextIV)
				}
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, round, err)
					return
				}
				got := make([]byte, s.DataSize())
				if err := s.Open(got, raws[round%16]); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestResealAllocsFloor pins steady-state Reseal with pooled scratch
// at zero allocations.
func TestResealAllocsFloor(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc floors don't hold under -race (the race runtime randomizes sync.Pool reuse)")
	}
	s := mustSealer(t, 4096)
	raw := make([]byte, 4096)
	iv := make([]byte, IVSize)
	if err := s.Reseal(raw, iv, nil); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Reseal(raw, iv, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Reseal allocates %.1f times per op, want 0", allocs)
	}
}
