package steghide

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
)

// newFaultyC2 builds a volatile agent over a fault-injectable device.
func newFaultyC2(t *testing.T) (*VolatileAgent, *blockdev.FaultDevice) {
	t.Helper()
	fd := blockdev.NewFault(blockdev.NewMem(128, 1024))
	vol, err := stegfs.Format(fd, stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("f")})
	if err != nil {
		t.Fatal(err)
	}
	return NewVolatile(vol, prng.NewFromUint64(7)), fd
}

func TestWriteFaultPropagatesAndStateRecovers(t *testing.T) {
	ctx := context.Background()
	a, fd := newFaultyC2(t)
	s, err := a.Login("u", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDummy("/d", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/f"); err != nil {
		t.Fatal(err)
	}
	content := prng.NewFromUint64(1).Bytes(10 * a.Vol().PayloadSize())
	if err := s.Write(ctx, "/f", content, 0); err != nil {
		t.Fatal(err)
	}

	// Every write from now on fails; the update must surface the
	// injected error, not panic or silently succeed.
	fd.FailWritesAfter(0)
	err = s.Write(ctx, "/f", content[:a.Vol().PayloadSize()], 0)
	if !errors.Is(err, blockdev.ErrInjected) {
		t.Fatalf("fault not propagated: %v", err)
	}

	// After the device heals, the agent must still function and the
	// file must still be fully readable.
	fd.Heal()
	got := make([]byte, len(content))
	if _, err := s.Read("/f", got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content corrupted by failed update")
	}
	if err := s.Write(ctx, "/f", content, 0); err != nil {
		t.Fatal(err)
	}

	// The staged case: a handle's writes wait in the file's open run, so
	// the fault meets the Save that issues them. Whatever refuses the
	// run — the device, a cancelled context, an empty dummy pool — the
	// run stays staged, the block map stays put, reads keep seeing the
	// new bytes, and repeating the Save converges.
	f, _ := s.Open("/f")
	ps := a.Vol().PayloadSize()
	fresh := prng.NewFromUint64(2).Bytes(3 * ps)
	want := bytes.Clone(content)
	for i, li := range []int{1, 4, 8} {
		copy(want[li*ps:], fresh[i*ps:(i+1)*ps])
		if err := s.Stage(ctx, "/f", fresh[i*ps:(i+1)*ps], uint64(li*ps)); err != nil {
			t.Fatal(err)
		}
	}
	locs, updates := f.BlockLocs(), a.Stats().DataUpdates
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	refusals := []struct {
		want error
		save func() error
	}{
		{blockdev.ErrInjected, func() error {
			fd.FailWritesAfter(0)
			defer fd.Heal()
			return s.Save(ctx, "/f")
		}},
		{context.Canceled, func() error { return s.Save(cancelled, "/f") }},
		{ErrNoDummySpace, func() error {
			// Withdraw the whole dummy pool for the length of the call.
			a.mu.Lock()
			held := a.dummyData
			a.dummyData = 0
			a.mu.Unlock()
			defer func() { a.mu.Lock(); a.dummyData = held; a.mu.Unlock() }()
			return s.Save(ctx, "/f")
		}},
	}
	for _, r := range refusals {
		if err := r.save(); !errors.Is(err, r.want) {
			t.Fatalf("save over a refused run: got %v, want %v", err, r.want)
		}
		if !slices.Equal(f.BlockLocs(), locs) || a.Stats().DataUpdates != updates {
			t.Fatalf("run refused with %v moved the block map or counted updates", r.want)
		}
		if _, err := s.Read("/f", got, 0); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("run refused with %v lost its staged bytes (%v)", r.want, err)
		}
	}
	if err := s.Save(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	if n := a.Stats().DataUpdates - updates; n != 3 {
		t.Fatalf("the retried save made %d data updates, want the 3 staged blocks once", n)
	}
	if err := a.Logout(ctx, "u"); err != nil {
		t.Fatal(err)
	}
	// What the retry wrote is what a new session finds on the device.
	s, err = a.Login("u", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Disclose("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("/f", got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("content after the retried save and a new login (%v)", err)
	}
}

// TestRunFaultLeavesFileAndCoverIntact fails the device at every read
// and every write index of one 16-block Write in turn — one scheduler
// batch. Each failed call must leave the session as it found it: the
// file's block map unchanged, every target the plan withdrew back in
// the dummy file that donated it, and every block readable as its old
// or (where an in-place write landed before the fault) its new content.
func TestRunFaultLeavesFileAndCoverIntact(t *testing.T) {
	ctx := context.Background()
	const run = 16
	for _, op := range []string{"read", "write"} {
		for k := int64(0); ; k++ {
			a, fd := newFaultyC2(t)
			s, err := a.Login("u", "pw")
			if err != nil {
				t.Fatal(err)
			}
			cover, err := s.CreateDummy("/d", 100)
			if err != nil {
				t.Fatal(err)
			}
			f, err := s.Create("/f")
			if err != nil {
				t.Fatal(err)
			}
			ps := a.Vol().PayloadSize()
			old := prng.NewFromUint64(1).Bytes(run * ps)
			if err := s.Write(ctx, "/f", old, 0); err != nil {
				t.Fatal(err)
			}
			locs, dummies, coverBlocks := f.BlockLocs(), a.DummyBlocks(), cover.NumBlocks()
			fresh := prng.NewFromUint64(2).Bytes(run * ps)
			if op == "read" {
				fd.FailReadsAfter(k)
			} else {
				fd.FailWritesAfter(k)
			}
			err = s.Write(ctx, "/f", fresh, 0)
			fd.Heal()
			if err == nil {
				if k < run {
					t.Fatalf("%s fault %d did not reach a %d-block batch", op, k, run)
				}
				break // past the batch: every index covered
			}
			if !errors.Is(err, blockdev.ErrInjected) {
				t.Fatalf("%s fault %d: %v", op, k, err)
			}
			if got := f.BlockLocs(); !slices.Equal(got, locs) {
				t.Fatalf("%s fault %d: failed write moved the block map", op, k)
			}
			if a.DummyBlocks() != dummies || cover.NumBlocks() != coverBlocks {
				t.Fatalf("%s fault %d: cover holds %d blocks (%d relocatable), had %d (%d)",
					op, k, cover.NumBlocks(), a.DummyBlocks(), coverBlocks, dummies)
			}
			got := make([]byte, run*ps)
			if _, err := s.Read("/f", got, 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < run; i++ {
				blk := got[i*ps : (i+1)*ps]
				if !bytes.Equal(blk, old[i*ps:(i+1)*ps]) && !bytes.Equal(blk, fresh[i*ps:(i+1)*ps]) {
					t.Fatalf("%s fault %d: block %d holds neither its old nor its new content", op, k, i)
				}
			}
			// The session still works, cover traffic included.
			if err := s.Write(ctx, "/f", fresh, 0); err != nil {
				t.Fatalf("%s fault %d: write after heal: %v", op, k, err)
			}
			if _, err := a.DummyUpdateBurst(32); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Read("/f", got, 0); err != nil || !bytes.Equal(got, fresh) {
				t.Fatalf("%s fault %d: content after heal and cover traffic (%v)", op, k, err)
			}
		}
	}
}

func TestReadFaultDuringDisclose(t *testing.T) {
	ctx := context.Background()
	a, fd := newFaultyC2(t)
	s, err := a.Login("u", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDummy("/d", 50); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, "/f", []byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Logout(ctx, "u"); err != nil {
		t.Fatal(err)
	}

	s2, err := a.Login("u", "pw")
	if err != nil {
		t.Fatal(err)
	}
	fd.FailReadsAfter(0)
	if _, err := s2.Disclose("/f"); !errors.Is(err, blockdev.ErrInjected) {
		t.Fatalf("disclose fault not propagated: %v", err)
	}
	fd.Heal()
	if _, err := s2.Disclose("/f"); err != nil {
		t.Fatalf("disclose after heal: %v", err)
	}
}

func TestDummyUpdateFault(t *testing.T) {
	a, fd := newFaultyC2(t)
	s, err := a.Login("u", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDummy("/d", 50); err != nil {
		t.Fatal(err)
	}
	fd.FailWritesAfter(0)
	if _, err := a.DummyUpdateBurst(1); !errors.Is(err, blockdev.ErrInjected) {
		t.Fatalf("dummy-update fault not propagated: %v", err)
	}
	fd.Heal()
	if _, err := a.DummyUpdateBurst(1); err != nil {
		t.Fatal(err)
	}
}

// TestAblationNoCamouflage demonstrates why Figure 6's camouflage
// branch matters: a "cheaper" variant that skips dummy-updating data
// blocks (redrawing until it finds a dummy, then writing only there)
// produces a write stream concentrated on the dummy region — an
// update-analysis attacker separates it from idle traffic at once.
func TestAblationNoCamouflage(t *testing.T) {
	col := &blockdev.Collector{}
	dev := blockdev.NewTraced(blockdev.NewMem(128, 2048), col)
	vol, err := stegfs.Format(dev, stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("ab")})
	if err != nil {
		t.Fatal(err)
	}
	src := stegfs.NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(3))
	fak := stegfs.DeriveFAK("u", "/f", vol)
	f, err := stegfs.CreateFile(vol, fak, "/f", src)
	if err != nil {
		t.Fatal(err)
	}
	policy := stegfs.InPlacePolicy{Vol: vol}
	if _, err := f.WriteAt(make([]byte, 32*vol.PayloadSize()), 0, policy); err != nil {
		t.Fatal(err)
	}
	// Fill to 50% so the dummy region is half the volume, remembering
	// which blocks represent other users' data.
	first, n := src.SpaceBounds()
	otherData := map[uint64]bool{}
	for n-first-src.FreeCount() < (n-first)/2 {
		loc, err := src.AcquireRandom()
		if err != nil {
			t.Fatal(err)
		}
		otherData[loc] = true
	}

	rng := prng.NewFromUint64(4)
	seal, err := vol.NewSealer(fak.ContentKey)
	if err != nil {
		t.Fatal(err)
	}

	// The ablated update: relocate straight to a random dummy block,
	// no camouflage along the way.
	noCamouflage := func(loc uint64) uint64 {
		for {
			b2 := first + rng.Uint64n(n-first)
			if b2 == loc {
				vol.WriteSealed(nil, loc, seal, make([]byte, vol.PayloadSize()))
				return loc
			}
			if !src.IsFree(b2) {
				continue // ablation: skip instead of camouflage
			}
			src.Acquire(b2)
			vol.WriteSealed(nil, b2, seal, make([]byte, vol.PayloadSize()))
			src.Release(loc)
			return b2
		}
	}

	// Ablated workload: 1500 updates, observed by the attacker.
	col.Reset()
	locs := f.BlockLocs()
	for i := 0; i < 1500; i++ {
		li := rng.Intn(len(locs))
		locs[li] = noCamouflage(locs[li])
	}
	touched := map[uint64]bool{}
	for _, e := range col.Events() {
		if e.Op == blockdev.OpWrite {
			touched[e.Block] = true
		}
	}

	// The distinguisher: without camouflage, other users' data blocks
	// are NEVER written — after a long window, the untouched half of
	// the volume is exactly the hidden data, existence proven. With
	// Figure 6 proper, camouflage touches them constantly (verified
	// in TestC1UpdateStreamUniform / TestC1SecurityDefinition1).
	for loc := range otherData {
		if touched[loc] {
			t.Fatalf("ablated variant wrote to data block %d; test premise broken", loc)
		}
	}
	// Sanity: with 1500 uniform-camouflage updates, the chance that
	// zero of ~1000 data blocks would be touched is astronomically
	// small, so "no data block ever written" is a reliable detector.
	if len(touched) == 0 {
		t.Fatal("ablated workload produced no writes")
	}
}
