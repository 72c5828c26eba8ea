package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
)

// tracedRig is a bitmap rig over a traced in-memory device, so a test
// can digest the full observable stream (every block read and write,
// in order) and the final volume image.
type tracedRig struct {
	s      *Scheduler
	vol    *stegfs.Volume
	source *stegfs.BitmapSource
	mem    *blockdev.Mem
	tap    *blockdev.Collector
}

// newTracedRig builds a rig whose every input — format fill, volume
// RNG, space draws — is seeded, so a run is a function of the code.
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
// updates interleaved with bursts of every size from one element to a
// full lane-grouped 64, refill and reseal targets mixed.
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
	for _, n := range []int{1, 5, 16, 32, 40, 64} {
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

// burstDigest is the SHA-256 of everything runBurstWorkload leaves
// observable: the device trace (op, block, count per event, in order),
// the final volume image and the scheduler counters.
func burstDigest(r *tracedRig) string {
	h := sha256.New()
	for _, e := range r.tap.Events() {
		fmt.Fprintf(h, "%d %d %d\n", e.Op, e.Block, e.Count)
	}
	h.Write(r.mem.Snapshot())
	fmt.Fprintf(h, "%+v\n", r.s.Stats())
	return hex.EncodeToString(h.Sum(nil))
}

// burstWorkloadDigest was recorded at the commit before the staged
// seal pipeline was deleted, where serial and pipelined bursts (one
// and four workers) all met it.
const burstWorkloadDigest = "dd49e474b352fd1f988d4eecf0f6c58e975ac7337c7c44cb97f369010edb79ab"

// TestBurstWorkloadDigest pins the scheduler's observable stream for a
// fixed seed against history: the draws, the IVs, the filler and the
// order blocks hit the device. A change that means to move them
// regenerates the constant and says why.
func TestBurstWorkloadDigest(t *testing.T) {
	r := newTracedRig(t, 1024, 0.4)
	runBurstWorkload(t, r)
	if got := burstDigest(r); got != burstWorkloadDigest {
		t.Errorf("burst workload digest %s, want %s", got, burstWorkloadDigest)
	}
}
