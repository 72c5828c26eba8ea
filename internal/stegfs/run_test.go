package stegfs

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/sealer"
)

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
		if err := p.vol.WriteRaw([]uint64{newLoc}, sealed[i:i+1]); err != nil {
			p.src.Release(newLoc)
			return err
		}
		p.src.Release(loc)
		locs[i] = newLoc
	}
	return nil
}

// TestFileUnderRelocatingPolicy: a file rewritten and grown through a
// relocating policy and saved after each round reopens with every byte
// of the last round (its blocks move like anyone else's).
func TestFileUnderRelocatingPolicy(t *testing.T) {
	vol, src := testVolume(t, 1024)
	fak := DeriveFAK("u", "/mv", vol)
	f, err := CreateFile(vol, fak, "/mv", src)
	if err != nil {
		t.Fatal(err)
	}
	reloc := relocatingPolicy{vol: vol, src: src, rng: prng.NewFromUint64(3)}
	var want []byte
	for round := 0; round < 10; round++ {
		want = append(want, prng.NewFromUint64(uint64(round)).Bytes(vol.PayloadSize()/3)...)
		if _, err := f.WriteAt(want, 0, reloc); err != nil {
			t.Fatal(err)
		}
		if err := f.Save(); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenFile(vol, fak, "/mv", src)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, re.Size())
	if _, err := re.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("lost bytes across relocations: %d bytes back, want %d", len(got), len(want))
	}
}

// countingPolicy relocates every block of a run and records the size of
// each run it was handed; while refuse is set it fails before touching
// anything, like a scheduler whose context was cancelled.
type countingPolicy struct {
	relocatingPolicy
	runs   *[]int
	refuse *bool
}

var errRefused = errors.New("run refused")

func (p countingPolicy) Update(locs []uint64, head uint64, seal *sealer.Sealer, sealed [][]byte) error {
	if *p.refuse {
		return errRefused
	}
	*p.runs = append(*p.runs, len(locs))
	return p.relocatingPolicy.Update(locs, head, seal, sealed)
}

// runRig is a traced volume holding one file of blocks whole blocks
// whose content is in old, written and saved before the trace starts.
type runRig struct {
	vol    *Volume
	col    *blockdev.Collector
	f      *File
	ps     int
	old    []byte
	policy countingPolicy
	runs   []int
	refuse bool
}

func newRunRig(t *testing.T, blocks int) *runRig {
	t.Helper()
	r := &runRig{col: &blockdev.Collector{}}
	dev := blockdev.NewTraced(blockdev.NewMem(128, 4096), r.col)
	vol, err := Format(dev, FormatOptions{KDFIterations: 4, FillSeed: []byte("run")})
	if err != nil {
		t.Fatal(err)
	}
	src := NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(1))
	r.vol, r.ps = vol, vol.PayloadSize()
	r.policy = countingPolicy{
		relocatingPolicy: relocatingPolicy{vol: vol, src: src, rng: prng.NewFromUint64(2)},
		runs:             &r.runs, refuse: &r.refuse,
	}
	if r.f, err = CreateFile(vol, DeriveFAK("u", "/f", vol), "/f", src); err != nil {
		t.Fatal(err)
	}
	r.old = prng.NewFromUint64(3).Bytes(blocks * r.ps)
	if _, err := r.f.WriteAt(r.old, 0, r.policy); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Save(); err != nil {
		t.Fatal(err)
	}
	r.runs = nil
	r.col.Reset()
	return r
}

// ops counts the device events since the last reset, by direction.
func (r *runRig) ops() (reads, writes int) {
	for _, e := range r.col.Events() {
		if e.Op == blockdev.OpWrite {
			writes++
		} else {
			reads++
		}
	}
	return reads, writes
}

func (r *runRig) read(t *testing.T) []byte {
	t.Helper()
	got := make([]byte, r.f.Size())
	if n, err := r.f.ReadAt(got, 0); err != nil || n != len(got) {
		t.Fatalf("ReadAt: n=%d err=%v", n, err)
	}
	return got
}

// TestStageIsSilentAndReadsSeeIt: staged whole blocks touch the device
// not at all, a partial block costs its one read however often it is
// patched, reads are served from the run without issuing it, and Flush
// hands the policy exactly one run of the distinct blocks.
func TestStageIsSilentAndReadsSeeIt(t *testing.T) {
	r := newRunRig(t, 40)
	want := bytes.Clone(r.old)
	fresh := prng.NewFromUint64(4).Bytes(len(want))
	for _, li := range []int{7, 3, 31, 7} { // block 7 twice: the second overwrites
		off := li * r.ps
		if li == 7 {
			fresh[off] ^= 0xff
		}
		copy(want[off:off+r.ps], fresh[off:off+r.ps])
		if n, err := r.f.Stage(fresh[off:off+r.ps], uint64(off), r.policy); err != nil || n != r.ps {
			t.Fatalf("stage block %d: n=%d err=%v", li, n, err)
		}
	}
	if reads, writes := r.ops(); reads+writes != 0 {
		t.Fatalf("staging whole blocks made %d reads and %d writes", reads, writes)
	}
	// Three sub-block writes into one block: one read, taken once.
	for i := 0; i < 3; i++ {
		off := 12*r.ps + 5 + 10*i
		copy(want[off:], "0123456789")
		if _, err := r.f.Stage([]byte("0123456789"), uint64(off), r.policy); err != nil {
			t.Fatal(err)
		}
	}
	if reads, writes := r.ops(); reads != 1 || writes != 0 {
		t.Fatalf("three patches of one block made %d reads and %d writes, want 1 and 0", reads, writes)
	}
	if got := r.read(t); !bytes.Equal(got, want) {
		t.Fatal("ReadAt does not see the staged writes")
	}
	blk := make([]byte, r.ps)
	if err := r.f.ReadBlockAt(31, blk); err != nil || !bytes.Equal(blk, want[31*r.ps:32*r.ps]) {
		t.Fatalf("ReadBlockAt does not see the staged block (err=%v)", err)
	}
	if _, writes := r.ops(); writes != 0 || len(r.runs) != 0 {
		t.Fatalf("reading issued the run: %d device writes, runs %v", writes, r.runs)
	}
	if err := r.f.Flush(r.policy); err != nil {
		t.Fatal(err)
	}
	if len(r.runs) != 1 || r.runs[0] != 4 {
		t.Fatalf("flush handed the policy runs %v, want one run of 4", r.runs)
	}
	if err := r.f.Flush(r.policy); err != nil || len(r.runs) != 1 {
		t.Fatalf("a second flush of an empty run reached the policy: %v %v", r.runs, err)
	}
	if got := r.read(t); !bytes.Equal(got, want) {
		t.Fatal("content after flush")
	}
}

// TestRunIssuesWhenFull: the 65th distinct block issues the first 64.
func TestRunIssuesWhenFull(t *testing.T) {
	r := newRunRig(t, readAtBatch+8)
	want := bytes.Clone(r.old)
	fresh := prng.NewFromUint64(5).Bytes(len(want))
	for li := 0; li <= readAtBatch; li++ {
		if li == readAtBatch && len(r.runs) != 0 {
			t.Fatalf("run issued before it was full: %v", r.runs)
		}
		off := li * r.ps
		copy(want[off:off+r.ps], fresh[off:off+r.ps])
		if _, err := r.f.Stage(fresh[off:off+r.ps], uint64(off), r.policy); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.runs) != 1 || r.runs[0] != readAtBatch {
		t.Fatalf("the %dth block issued runs %v, want one of %d", readAtBatch+1, r.runs, readAtBatch)
	}
	if err := r.f.Flush(r.policy); err != nil {
		t.Fatal(err)
	}
	if len(r.runs) != 2 || r.runs[1] != 1 {
		t.Fatalf("runs %v, want [%d 1]", r.runs, readAtBatch)
	}
	if got := r.read(t); !bytes.Equal(got, want) {
		t.Fatal("content")
	}
}

// TestLargeWriteIsOneRun: a write of a full run of whole blocks seals
// from the caller's buffer, and its partial head and tail — and what was
// staged before — leave in the same run; a staged block the large write
// covers is superseded, not issued twice.
func TestLargeWriteIsOneRun(t *testing.T) {
	r := newRunRig(t, readAtBatch+4)
	want := bytes.Clone(r.old)
	stale := bytes.Repeat([]byte{0xaa}, r.ps)
	if _, err := r.f.Stage(stale, uint64(10*r.ps), r.policy); err != nil { // inside the large write
		t.Fatal(err)
	}
	early := bytes.Repeat([]byte{0xbb}, r.ps)
	copy(want[(readAtBatch+3)*r.ps:], early)
	if _, err := r.f.Stage(early, uint64((readAtBatch+3)*r.ps), r.policy); err != nil { // beyond it
		t.Fatal(err)
	}
	off := r.ps - 9 // head: the last 9 bytes of block 0
	data := prng.NewFromUint64(6).Bytes(9 + readAtBatch*r.ps + 20)
	// Refused, the large write keeps even the staged block it covers.
	r.refuse = true
	if _, err := r.f.WriteAt(data, uint64(off), r.policy); !errors.Is(err, errRefused) {
		t.Fatalf("refused large write: %v", err)
	}
	blk := make([]byte, r.ps)
	if err := r.f.ReadBlockAt(10, blk); err != nil || !bytes.Equal(blk, stale) {
		t.Fatalf("refused large write dropped the staged block it covers (err=%v)", err)
	}
	r.refuse = false
	copy(want[off:], data)
	if n, err := r.f.WriteAt(data, uint64(off), r.policy); err != nil || n != len(data) {
		t.Fatalf("WriteAt: n=%d err=%v", n, err)
	}
	// Head, 64 whole blocks, tail, and the block staged beyond.
	if len(r.runs) != 1 || r.runs[0] != readAtBatch+3 {
		t.Fatalf("large write issued runs %v, want one of %d", r.runs, readAtBatch+3)
	}
	if got := r.read(t); !bytes.Equal(got, want) {
		t.Fatal("content after the large write")
	}
}

// TestTruncateAndDeleteDropStagedBlocks: a shrink forgets what the run
// held beyond the new end — regrowing reads zeros there, not the staged
// bytes — and Delete discards the run unissued.
func TestTruncateAndDeleteDropStagedBlocks(t *testing.T) {
	r := newRunRig(t, 20)
	fresh := bytes.Repeat([]byte{0xcc}, r.ps)
	for _, li := range []int{2, 15} {
		if _, err := r.f.Stage(fresh, uint64(li*r.ps), r.policy); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.f.Resize(uint64(10*r.ps), r.policy); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Resize(uint64(20*r.ps), r.policy); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Flush(r.policy); err != nil {
		t.Fatal(err)
	}
	if len(r.runs) != 1 || r.runs[0] != 1 {
		t.Fatalf("runs %v, want the one surviving block", r.runs)
	}
	got := r.read(t)
	if !bytes.Equal(got[2*r.ps:3*r.ps], fresh) {
		t.Fatal("block below the cut lost its staged write")
	}
	if !bytes.Equal(got[15*r.ps:16*r.ps], make([]byte, r.ps)) {
		t.Fatal("block above the cut came back with staged or old bytes, want zeros")
	}

	if _, err := r.f.Stage(fresh, 0, r.policy); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Delete(); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Flush(r.policy); err != nil || len(r.runs) != 1 {
		t.Fatalf("Delete left a run to issue: runs %v err %v", r.runs, err)
	}
}

// TestRefusedFlushIsRetryable: a run the policy refuses stays staged
// with the block map untouched and nothing written; reads keep seeing
// it, and the retry issues it whole. A refusal met while making room
// for a 65th block fails that write and keeps the 64.
func TestRefusedFlushIsRetryable(t *testing.T) {
	r := newRunRig(t, readAtBatch+2)
	want := bytes.Clone(r.old)
	fresh := prng.NewFromUint64(7).Bytes(len(want))
	for li := 0; li < readAtBatch; li++ {
		off := li * r.ps
		copy(want[off:off+r.ps], fresh[off:off+r.ps])
		if _, err := r.f.Stage(fresh[off:off+r.ps], uint64(off), r.policy); err != nil {
			t.Fatal(err)
		}
	}
	locs := r.f.BlockLocs()
	r.refuse = true
	if err := r.f.Flush(r.policy); !errors.Is(err, errRefused) {
		t.Fatalf("flush: %v", err)
	}
	off := readAtBatch * r.ps
	if n, err := r.f.Stage(fresh[off:off+r.ps], uint64(off), r.policy); !errors.Is(err, errRefused) || n != 0 {
		t.Fatalf("stage of block %d over a full, refused run: n=%d err=%v", readAtBatch, n, err)
	}
	if _, writes := r.ops(); writes != 0 {
		t.Fatalf("refused flush wrote %d times", writes)
	}
	if got := r.f.BlockLocs(); !slices.Equal(got, locs) {
		t.Fatal("refused flush moved the block map")
	}
	if got := r.read(t); !bytes.Equal(got, want) {
		t.Fatal("staged content lost by the refused flush")
	}
	r.refuse = false
	if err := r.f.Flush(r.policy); err != nil {
		t.Fatal(err)
	}
	if len(r.runs) != 1 || r.runs[0] != readAtBatch {
		t.Fatalf("retry issued runs %v, want one of %d", r.runs, readAtBatch)
	}
	if got := r.read(t); !bytes.Equal(got, want) {
		t.Fatal("content after the retried flush")
	}
}
