package sched

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// newBitmapRig formats a small volume and builds a scheduler over a
// BitmapSpace at roughly the given utilization.
func newBitmapRig(t testing.TB, nBlocks uint64, utilization float64) (*Scheduler, *stegfs.Volume, *stegfs.BitmapSource) {
	t.Helper()
	return newBitmapRigOn(t, blockdev.NewMem(128, nBlocks), utilization)
}

// newBitmapRigOn is newBitmapRig over a caller-built device (a tracer,
// a fault injector).
func newBitmapRigOn(t testing.TB, dev blockdev.Device, utilization float64) (*Scheduler, *stegfs.Volume, *stegfs.BitmapSource) {
	t.Helper()
	vol, err := stegfs.Format(dev,
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("sched")})
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.NewFromUint64(17)
	source := stegfs.NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), rng.Child("alloc"))
	seal, err := vol.NewSealer([32]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	s := New(vol, NewBitmapSpace(source, seal, rng.Child("draws")))
	first, n := source.SpaceBounds()
	span := n - first
	for span-source.FreeCount() < uint64(float64(span)*utilization) {
		if _, err := source.AcquireRandom(); err != nil {
			t.Fatal(err)
		}
	}
	return s, vol, source
}

// sealBlock seals payload under a fresh volume IV: the block a file
// layer hands Scheduler.Update.
func sealBlock(t testing.TB, vol *stegfs.Volume, seal *sealer.Sealer, payload []byte) []byte {
	t.Helper()
	raw := make([]byte, vol.BlockSize())
	vol.NextIV(raw[:sealer.IVSize])
	if err := seal.Seal(raw, raw[:sealer.IVSize], payload); err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestSchedulerUpdatePreservesPayloadAndPartition(t *testing.T) {
	s, vol, source := newBitmapRig(t, 512, 0.5)
	seal, err := vol.NewSealer([32]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := source.AcquireRandom()
	if err != nil {
		t.Fatal(err)
	}
	payload := prng.NewFromUint64(1).Bytes(vol.PayloadSize())
	used := source.UsedCount()
	cur := loc
	for i := 0; i < 50; i++ {
		next, err := s.Update(cur, seal, sealBlock(t, vol, seal, payload))
		if err != nil {
			t.Fatal(err)
		}
		if source.IsFree(next) {
			t.Fatalf("data landed on a block still marked free: %d", next)
		}
		if next != cur && !source.IsFree(cur) {
			t.Fatalf("vacated block %d not returned to the dummy pool", cur)
		}
		cur = next
	}
	if got := source.UsedCount(); got != used {
		t.Fatalf("utilization drifted across relocations: %d -> %d", used, got)
	}
	got, err := vol.ReadSealed(cur, seal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload lost across relocating updates")
	}
	st := s.Stats()
	if st.DataUpdates != 50 || st.Iterations < 50 {
		t.Fatalf("counters off: %+v", st)
	}
	if st.InPlace+st.Relocations != 50 {
		t.Fatalf("every update must end in-place or relocated: %+v", st)
	}
}

func TestSchedulerNoFreeSpace(t *testing.T) {
	s, vol, source := newBitmapRig(t, 64, 0)
	seal, err := vol.NewSealer([32]byte{9})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := source.AcquireRandom()
	if err != nil {
		t.Fatal(err)
	}
	for { // exhaust
		if _, err := source.AcquireRandom(); err != nil {
			break
		}
	}
	_, err = s.Update(loc, seal, sealBlock(t, vol, seal, make([]byte, vol.PayloadSize())))
	if !errors.Is(err, ErrNoFreeSpace) {
		t.Fatalf("full space update: %v", err)
	}
	// A failed update emitted no I/O, so it must not count — counting
	// it would advance DataSeq and mute the adaptive daemon while the
	// stream is actually silent.
	if st := s.Stats(); st.DataUpdates != 0 || st.Iterations != 0 {
		t.Fatalf("failed update moved counters: %+v", st)
	}
	if s.DataSeq() != 0 {
		t.Fatal("failed update advanced DataSeq")
	}
}

func TestSchedulerDummyBurstCountsAndPreserves(t *testing.T) {
	s, vol, source := newBitmapRig(t, 512, 0.3)
	seal, err := vol.NewSealer([32]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := source.AcquireRandom()
	if err != nil {
		t.Fatal(err)
	}
	payload := prng.NewFromUint64(2).Bytes(vol.PayloadSize())
	if err := vol.WriteSealed(loc, seal, payload); err != nil {
		t.Fatal(err)
	}
	n, err := s.DummyUpdateBurst(64)
	if err != nil {
		t.Fatal(err)
	}
	if n != 64 {
		t.Fatalf("burst issued %d of 64", n)
	}
	if got := s.Stats().DummyUpdates; got != 64 {
		t.Fatalf("dummy counter %d", got)
	}
	got, err := vol.ReadSealed(loc, seal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("dummy burst corrupted sealed data")
	}
}

// TestSchedulerConcurrentStream is the core tentpole property: many
// goroutines of real updates interleaved with dummy bursts, every
// payload intact afterwards, counters exact, race detector clean.
func TestSchedulerConcurrentStream(t *testing.T) {
	s, vol, source := newBitmapRig(t, 2048, 0.3)
	seal, err := vol.NewSealer([32]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const updates = 40
	locs := make([]uint64, workers)
	payloads := make([][]byte, workers)
	for i := range locs {
		loc, err := source.AcquireRandom()
		if err != nil {
			t.Fatal(err)
		}
		locs[i] = loc
		payloads[i] = prng.NewFromUint64(uint64(100 + i)).Bytes(vol.PayloadSize())
		if err := vol.WriteSealed(loc, seal, payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cur := locs[i]
			sealed := make([]byte, vol.BlockSize())
			for k := 0; k < updates; k++ {
				vol.NextIV(sealed[:sealer.IVSize])
				if err := seal.Seal(sealed, sealed[:sealer.IVSize], payloads[i]); err != nil {
					errCh <- err
					return
				}
				next, err := s.Update(cur, seal, sealed)
				if err != nil {
					errCh <- err
					return
				}
				cur = next
			}
			locs[i] = cur
		}(i)
	}
	wg.Add(1)
	go func() { // the daemon's role: dummy traffic against live updates
		defer wg.Done()
		for k := 0; k < 20; k++ {
			if _, err := s.DummyUpdateBurst(16); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for i := range locs {
		got, err := vol.ReadSealed(locs[i], seal)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("worker %d payload corrupted under concurrency", i)
		}
	}
	st := s.Stats()
	if st.DataUpdates != workers*updates {
		t.Fatalf("data updates %d != %d", st.DataUpdates, workers*updates)
	}
	if st.DummyUpdates != 20*16 {
		t.Fatalf("dummy updates %d != %d", st.DummyUpdates, 20*16)
	}
	if st.Iterations != st.InPlace+st.Relocations+st.Camouflage {
		// Redraws only happen on acquire races; they add iterations
		// without a terminal class, so >= is the general invariant.
		if st.Iterations < st.InPlace+st.Relocations+st.Camouflage {
			t.Fatalf("iteration accounting broken: %+v", st)
		}
	}
}

func TestBlockLocksOrdering(t *testing.T) {
	l := NewBlockLocks(8)
	// Same shard twice must not self-deadlock.
	unlock := l.Lock2(1, 9) // 1 and 9 share shard 1 of 8
	unlock()
	unlock = l.LockBlocks([]uint64{3, 11, 3, 19, 5})
	unlock()
	// Reverse-order pairs must not deadlock against each other.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				var u func()
				if i%2 == 0 {
					u = l.Lock2(2, 7)
				} else {
					u = l.Lock2(7, 2)
				}
				u()
			}
		}(i)
	}
	wg.Wait()
}

// countingIntents records IntentLog traffic for the one-slot-per-
// element invariant.
type countingIntents struct {
	mu      sync.Mutex
	relocs  int
	dummies int
}

func (c *countingIntents) LogStream(from, to []uint64) error {
	c.mu.Lock()
	for i := range from {
		if from[i] != to[i] {
			c.relocs++
		} else {
			c.dummies++
		}
	}
	c.mu.Unlock()
	return nil
}

// TestIntentPerStreamElement asserts the journal contract: every
// element of the emitted update stream — in-place, relocation,
// camouflage, idle dummy — carries exactly one intent, so ring
// traffic reveals only the stream's cadence.
func TestIntentPerStreamElement(t *testing.T) {
	s, vol, source := newBitmapRig(t, 512, 0.5)
	ci := &countingIntents{}
	s.SetIntentLog(ci)
	seal, err := vol.NewSealer([32]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := source.AcquireRandom()
	if err != nil {
		t.Fatal(err)
	}
	payload := prng.NewFromUint64(2).Bytes(vol.PayloadSize())
	cur := loc
	for i := 0; i < 40; i++ {
		next, err := s.Update(cur, seal, sealBlock(t, vol, seal, payload))
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	for i := 0; i < 25; i++ {
		if err := s.DummyUpdate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.DummyUpdateBurst(16); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	elements := st.Iterations + st.DummyUpdates
	if got := uint64(ci.relocs + ci.dummies); got != elements {
		t.Fatalf("%d intents for %d stream elements", got, elements)
	}
	if uint64(ci.relocs) != st.Relocations {
		t.Fatalf("%d reloc intents for %d relocations", ci.relocs, st.Relocations)
	}
}
