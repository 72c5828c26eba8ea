package sealer

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

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

// TestPipelineBitIdenticalToSerial is the package-level half of the
// determinism oracle: whatever the pool width, the pipelined batch
// methods must produce byte-for-byte the serial methods' output and
// drain the IV source in the same order.
func TestPipelineBitIdenticalToSerial(t *testing.T) {
	const bs = 256
	s := mustSealer(t, bs)
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			p := NewPipeline(workers)

			// SealMany.
			payloads, serialIV := sealFixtures(s, n, uint64(n))
			_, pipeIV := sealFixtures(s, n, uint64(n))
			want := blockdev.AllocBlocks(n, bs)
			got := blockdev.AllocBlocks(n, bs)
			if err := s.SealMany(want, serialIV, payloads); err != nil {
				t.Fatal(err)
			}
			if err := p.SealMany(s, got, pipeIV, payloads); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !bytes.Equal(want[i], got[i]) {
					t.Fatalf("workers=%d n=%d: SealMany diverged at block %d", workers, n, i)
				}
			}

			// OpenMany.
			wantOpen := blockdev.AllocBlocks(n, s.DataSize())
			gotOpen := blockdev.AllocBlocks(n, s.DataSize())
			if err := s.OpenMany(wantOpen, want); err != nil {
				t.Fatal(err)
			}
			if err := p.OpenMany(s, gotOpen, got); err != nil {
				t.Fatal(err)
			}
			for i := range wantOpen {
				if !bytes.Equal(wantOpen[i], gotOpen[i]) {
					t.Fatalf("workers=%d n=%d: OpenMany diverged at block %d", workers, n, i)
				}
			}

			// ResealMany against the pool's ResealLanes: reuse the two
			// identical sealed copies and two identical IV streams (the
			// lanes form takes its IVs pre-drawn, in index order); the
			// raws must stay equal after.
			_, serialIV2 := sealFixtures(s, n, uint64(n)+99)
			_, pipeIV2 := sealFixtures(s, n, uint64(n)+99)
			if err := s.ResealMany(want, serialIV2); err != nil {
				t.Fatal(err)
			}
			seals := make([]*Sealer, n)
			ivs := make([]byte, n*IVSize)
			for i := range seals {
				seals[i] = s
				pipeIV2(ivs[i*IVSize : (i+1)*IVSize])
			}
			if err := p.ResealLanes(seals, got, ivs); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !bytes.Equal(want[i], got[i]) {
					t.Fatalf("workers=%d n=%d: ResealMany diverged at block %d", workers, n, i)
				}
			}
		}
	}
}

// TestBatchRejectsMismatchedLengths pins the whole-batch-first
// validation contract of both the serial and pipelined batch methods:
// a malformed batch fails before any buffer is touched or IV drawn.
func TestBatchRejectsMismatchedLengths(t *testing.T) {
	const bs = 64
	s := mustSealer(t, bs)
	p := NewPipeline(4)
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
		{"Pipeline/SealMany/count", func() error { return p.SealMany(s, good, countIV, payloads[:2]) }},
		{"Pipeline/SealMany/dst", func() error { return p.SealMany(s, short, countIV, payloads) }},
		{"Pipeline/OpenMany/count", func() error { return p.OpenMany(s, payloads[:1], good) }},
		{"ResealLanes/raw", func() error { return ResealLanes([]*Sealer{s, s, s}, short, make([]byte, 3*IVSize)) }},
		{"ResealLanes/ivs", func() error { return ResealLanes([]*Sealer{s, s, s}, good, make([]byte, 2*IVSize)) }},
		{"ResealLanes/nil", func() error { return ResealLanes([]*Sealer{s, nil, s}, good, make([]byte, 3*IVSize)) }},
		{"Pipeline/ResealLanes/raw", func() error { return p.ResealLanes([]*Sealer{s, s, s}, short, make([]byte, 3*IVSize)) }},
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
	p := NewPipeline(4)
	drew := false
	iv := func([]byte) { drew = true }
	for name, fn := range map[string]func() error{
		"SealMany":             func() error { return s.SealMany(nil, iv, nil) },
		"OpenMany":             func() error { return s.OpenMany(nil, nil) },
		"ResealMany":           func() error { return s.ResealMany(nil, iv) },
		"Pipeline/SealMany":    func() error { return p.SealMany(s, nil, iv, nil) },
		"Pipeline/OpenMany":    func() error { return p.OpenMany(s, nil, nil) },
		"ResealLanes":          func() error { return ResealLanes(nil, nil, nil) },
		"Pipeline/ResealLanes": func() error { return p.ResealLanes(nil, nil, nil) },
	} {
		if err := fn(); err != nil {
			t.Errorf("%s(empty): %v", name, err)
		}
	}
	if drew {
		t.Error("empty batch drew an IV")
	}
}

// TestSealerConcurrentBatches pins the safety property the pipeline is
// built on: one Sealer driven from many goroutines at once — mixed
// Seal/Open/Reseal singletons and batches, all sharing the scratch
// pool — under the race detector.
func TestSealerConcurrentBatches(t *testing.T) {
	const bs = 256
	s := mustSealer(t, bs)
	p := NewPipeline(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payloads, nextIV := sealFixtures(s, 16, uint64(g))
			raws := blockdev.AllocBlocks(16, bs)
			for round := 0; round < 20; round++ {
				var err error
				switch round % 3 {
				case 0:
					err = s.SealMany(raws, nextIV, payloads)
				case 1:
					err = p.SealMany(s, raws, nextIV, payloads)
				case 2:
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

// TestEachPropagatesError pins that a failing index surfaces its error
// whatever worker hits it.
func TestEachPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		p := NewPipeline(workers)
		err := p.Each(64, func(i int) error {
			if i == 17 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want boom", workers, err)
		}
	}
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

// TestPipelineSpeedupMultiCore asserts the acceptance criterion on
// hosts that can show it: with 4+ cores, pipelined sealing of a large
// batch must be at least 2× the serial throughput. Single-core hosts
// (the dev box) skip; the bit-identity tests above still pin
// correctness there.
func TestPipelineSpeedupMultiCore(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("needs >= 4 cores, have %d", runtime.NumCPU())
	}
	const bs, n = 4096, 2048
	s := mustSealer(t, bs)
	payloads, nextIV := sealFixtures(s, n, 7)
	raws := blockdev.AllocBlocks(n, bs)
	p := NewPipeline(0)

	measure := func(fn func() error) time.Duration {
		best := time.Duration(1<<63 - 1)
		for round := 0; round < 5; round++ {
			start := time.Now()
			if err := fn(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	serial := measure(func() error { return s.SealMany(raws, nextIV, payloads) })
	piped := measure(func() error { return p.SealMany(s, raws, nextIV, payloads) })
	speedup := float64(serial) / float64(piped)
	t.Logf("serial %v, pipelined %v (%d workers): %.2fx", serial, piped, p.Workers(), speedup)
	if speedup < 2 {
		t.Errorf("pipelined SealMany only %.2fx serial on %d cores, want >= 2x", speedup, runtime.NumCPU())
	}
}

// Paired go-bench arms of the microbench suite's seal-pipeline pair.
func BenchmarkSealPipeline(b *testing.B) {
	const bs, n = 4096, 256
	s, err := New(DeriveKey([]byte("bench"), "pipe"), bs)
	if err != nil {
		b.Fatal(err)
	}
	payloads, nextIV := sealFixtures(s, n, 11)
	raws := blockdev.AllocBlocks(n, bs)
	arms := []struct {
		name string
		fn   func() error
	}{
		{fmt.Sprintf("serial-%d", n), func() error { return s.SealMany(raws, nextIV, payloads) }},
		{fmt.Sprintf("pipelined-%d", n), func() error {
			p := NewPipeline(0)
			return p.SealMany(s, raws, nextIV, payloads)
		}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.SetBytes(int64(n * bs))
			for i := 0; i < b.N; i++ {
				if err := arm.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
