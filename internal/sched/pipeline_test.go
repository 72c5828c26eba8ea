package sched

import (
	"bytes"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// tracedRig is a bitmap rig over a traced in-memory device, so a test
// can compare the full observable stream (every block read and write,
// in order) and the final volume image across scheduler configs.
type tracedRig struct {
	s      *Scheduler
	vol    *stegfs.Volume
	source *stegfs.BitmapSource
	mem    *blockdev.Mem
	tap    *blockdev.Collector
}

// newTracedRig builds a rig whose every input — format fill, volume
// RNG, space draws — is seeded, so two rigs are bit-identical twins.
func newTracedRig(t testing.TB, nBlocks uint64, utilization float64) *tracedRig {
	t.Helper()
	mem := blockdev.NewMem(128, nBlocks)
	tap := &blockdev.Collector{}
	vol, err := stegfs.Format(blockdev.NewTraced(mem, tap),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("pipe")})
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.NewFromUint64(23)
	source := stegfs.NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), rng.Child("alloc"))
	seal, err := vol.NewSealer([32]byte{4, 5, 6})
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
	tap.Reset()
	return &tracedRig{s: s, vol: vol, source: source, mem: mem, tap: tap}
}

// runBurstWorkload drives one deterministic mixed workload: real
// updates interleaved with bursts of every interesting size relative
// to burstChunk (smaller, exact, multiple, multiple-plus-remainder).
func runBurstWorkload(t testing.TB, r *tracedRig) {
	t.Helper()
	seal, err := r.vol.NewSealer([32]byte{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := r.source.AcquireRandom()
	if err != nil {
		t.Fatal(err)
	}
	payload := prng.NewFromUint64(3).Bytes(r.vol.PayloadSize())
	if err := r.vol.WriteSealed(loc, seal, payload); err != nil {
		t.Fatal(err)
	}
	cur := loc
	for _, n := range []int{1, 5, burstChunk, 2 * burstChunk, 40, 64} {
		if _, err := r.s.DummyUpdateBurst(n); err != nil {
			t.Fatal(err)
		}
		next, err := r.s.Update(cur, seal, sealBlock(t, r.vol, seal, payload))
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	got, err := r.vol.ReadSealed(cur, seal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted by workload")
	}
}

// TestBurstPipelineBitIdentical is the scheduler half of the
// determinism oracle: with the pipeline enabled, the device must see
// the same operations in the same order on the same blocks, the final
// volume image must match byte for byte, and every counter must agree
// with the serial scheduler — across burst sizes below, at, and above
// the chunk size, refill and reseal targets mixed.
func TestBurstPipelineBitIdentical(t *testing.T) {
	serial := newTracedRig(t, 1024, 0.4)
	runBurstWorkload(t, serial)

	for _, workers := range []int{1, 4} {
		piped := newTracedRig(t, 1024, 0.4)
		piped.s.EnablePipeline(workers)
		if !piped.s.Pipelined() {
			t.Fatal("EnablePipeline did not take")
		}
		runBurstWorkload(t, piped)

		se, pe := serial.tap.Events(), piped.tap.Events()
		if len(se) != len(pe) {
			t.Fatalf("workers=%d: %d traced ops serial vs %d pipelined", workers, len(se), len(pe))
		}
		for i := range se {
			if se[i].Op != pe[i].Op || se[i].Block != pe[i].Block || se[i].Count != pe[i].Count {
				t.Fatalf("workers=%d: op %d diverged: serial %+v pipelined %+v",
					workers, i, se[i], pe[i])
			}
		}
		if !bytes.Equal(serial.mem.Snapshot(), piped.mem.Snapshot()) {
			t.Fatalf("workers=%d: final volume images differ", workers)
		}
		if serial.s.Stats() != piped.s.Stats() {
			t.Fatalf("workers=%d: counters diverged: serial %+v pipelined %+v",
				workers, serial.s.Stats(), piped.s.Stats())
		}
	}
}

// TestBurstPipelinedIntents pins that the pipelined burst keeps the
// journal contract: one intent record per stream element, emitted on
// the serial control path before any payload I/O.
func TestBurstPipelinedIntents(t *testing.T) {
	r := newTracedRig(t, 512, 0.3)
	r.s.EnablePipeline(4)
	ci := &countingIntents{}
	r.s.SetIntentLog(ci)
	n, err := r.s.DummyUpdateBurst(48)
	if err != nil {
		t.Fatal(err)
	}
	if ci.dummies != n {
		t.Fatalf("%d intents for %d burst elements", ci.dummies, n)
	}
}

// TestBurstPipelinedConcurrent runs the concurrent-stream stress with
// the pipeline on: correctness (not determinism — interleaving with
// live updates is scheduling-dependent either way) under the race
// detector, payloads intact, counters exact.
func TestBurstPipelinedConcurrent(t *testing.T) {
	s, vol, source := newBitmapRig(t, 2048, 0.3)
	s.EnablePipeline(4)
	seal, err := vol.NewSealer([32]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := source.AcquireRandom()
	if err != nil {
		t.Fatal(err)
	}
	payload := prng.NewFromUint64(9).Bytes(vol.PayloadSize())
	if err := vol.WriteSealed(loc, seal, payload); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() {
		cur := loc
		sealed := make([]byte, vol.BlockSize())
		for k := 0; k < 60; k++ {
			vol.NextIV(sealed[:sealer.IVSize])
			if err := seal.Seal(sealed, sealed[:sealer.IVSize], payload); err != nil {
				done <- err
				return
			}
			next, err := s.Update(cur, seal, sealed)
			if err != nil {
				done <- err
				return
			}
			cur = next
		}
		loc = cur
		done <- nil
	}()
	go func() {
		for k := 0; k < 12; k++ {
			if _, err := s.DummyUpdateBurst(24); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	got, err := vol.ReadSealed(loc, seal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted under pipelined concurrency")
	}
	st := s.Stats()
	if st.DataUpdates != 60 || st.DummyUpdates != 12*24 {
		t.Fatalf("counters off: %+v", st)
	}
}
