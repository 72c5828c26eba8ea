package attack_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"steghide"
	"steghide/internal/attack"
	"steghide/internal/blockdev"
	"steghide/internal/journal"
	"steghide/internal/prng"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// TestFillerIndistinguishableFromSealed is the content adversary's
// pass over a real image: a Construction-2 volume is formatted,
// populated with hidden files and run through cover bursts, and the
// raw blocks are then split the way only the key holder can split them
// — the cover file's blocks (format fill, burst refills: the filler
// keystream) against the hidden files' data blocks (IV ‖ CBC-AES) —
// at least 1 024 of each. Neither the byte histogram nor the deflate
// ratio may separate them at α. The volume's deniability rests on
// exactly this: a block that was never written by a user must not look
// different from one that was. The ring rows hold the intent journal to
// the same bar, one cell at a time: the filler cells of dummy bursts
// (the journal's keystream) against its sealed record cells.
func TestFillerIndistinguishableFromSealed(t *testing.T) {
	ctx := context.Background()
	const bs, blocks, coverBlocks, files, fileBlocks = 4096, 4096, 2560, 8, 136
	dev := steghide.NewMemDevice(bs, blocks)
	stack, err := steghide.Mount(dev,
		steghide.WithFormat(steghide.FormatOptions{KDFIterations: 4, FillSeed: []byte("content-fill")}),
		steghide.WithConstruction2(),
		steghide.WithSeed([]byte("content-agent")))
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close() //nolint:errcheck // test teardown
	agent := stack.Agent2()
	sess, err := agent.Login("mallory-cannot-be", "content-pass")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.CreateDummy("/cover", coverBlocks); err != nil {
		t.Fatal(err)
	}
	payload := stack.Volume().PayloadSize()
	// Low-entropy plaintext: if sealing leaked any of it, both
	// statistics would see it.
	content := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), fileBlocks*payload/45+1)[:fileBlocks*payload]
	var paths []string
	for i := 0; i < files; i++ {
		p := fmt.Sprintf("/secret-%d", i)
		paths = append(paths, p)
		if _, err := sess.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := sess.Write(ctx, p, content, 0); err != nil {
			t.Fatal(err)
		}
		if err := sess.Save(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	// Cover traffic: enough bursts that most cover blocks have been
	// refilled at least once, and many data blocks resealed.
	for i := 0; i < 4*(coverBlocks+files*fileBlocks)/64; i++ {
		if _, err := agent.DummyUpdateBurst(64); err != nil {
			t.Fatal(err)
		}
	}

	raw := func(locs []uint64) [][]byte {
		out := make([][]byte, len(locs))
		for i, loc := range locs {
			out[i] = make([]byte, bs)
			if err := dev.ReadBlock(loc, out[i]); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	cover, ok := sess.Open("/cover")
	if !ok {
		t.Fatal("cover file not disclosed")
	}
	filler := raw(cover.BlockLocs())
	var sealed [][]byte
	for _, p := range paths {
		f, ok := sess.Open(p)
		if !ok {
			t.Fatalf("%s not open", p)
		}
		sealed = append(sealed, raw(f.BlockLocs())...)
	}
	if len(filler) < 1024 || len(sealed) < 1024 {
		t.Fatalf("populations too small: %d filler, %d sealed blocks", len(filler), len(sealed))
	}
	hist, cx, err := attack.CompareContent(filler, sealed)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d filler vs %d sealed blocks: %s (p=%.3f); %s (p=%.3f)",
		len(filler), len(sealed), hist.Evidence, hist.PValue, cx.Evidence, cx.PValue)
	if hist.Detected {
		t.Errorf("byte histogram separates filler from sealed blocks: %+v", hist)
	}
	if cx.Detected {
		t.Errorf("compressibility separates filler from sealed blocks: %+v", cx)
	}

	fillers, records := ringCells(t)
	if hist, cx, err = attack.CompareContent(fillers, records); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d filler vs %d sealed ring cells: %s (p=%.3f); %s (p=%.3f)",
		len(fillers), len(records), hist.Evidence, hist.PValue, cx.Evidence, cx.PValue)
	if hist.Detected || cx.Detected {
		t.Errorf("ring filler cells are distinguishable from sealed record cells: %+v / %+v", hist, cx)
	}
}

// ringCells runs a journal ring through batches of the update stream's
// two kinds of element — relocation intents and dummy fillers, mixed
// at random — until every cell has been written, and splits the cells
// the way only the journal key can: the sealed records (every intent,
// and the cell that opens each slot write) against the filler cells.
func ringCells(t *testing.T) (fillers, records [][]byte) {
	t.Helper()
	const bs, slots = 4096, 64
	dev := blockdev.NewMem(bs, 2*slots)
	vol, err := stegfs.Format(dev, stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("content-ring"), JournalBlocks: slots})
	if err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(vol, sealer.DeriveKey([]byte("content-ring"), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.NewFromUint64(5)
	for done := uint64(0); done < j.Capacity(); done += 64 {
		err := j.AppendBatch(64, func(_ int, r *journal.Record) {
			r.Op = journal.OpDummy
			if rng.Uint64n(2) == 0 {
				*r = journal.Record{Op: journal.OpReloc, FileH: 300 + rng.Uint64n(8), OldLoc: 400 + rng.Uint64n(4096), NewLoc: 400 + rng.Uint64n(4096)}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	recs, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	sealed := map[uint64]bool{}
	for _, r := range recs {
		sealed[(r.Seq-1)%j.Capacity()] = true
	}
	ring := dev.Snapshot()[bs : (1+slots)*bs]
	for c := uint64(0); c < j.Capacity(); c++ {
		cell := ring[c*journal.CellSize : (c+1)*journal.CellSize]
		if sealed[c] {
			records = append(records, cell)
		} else {
			fillers = append(fillers, cell)
		}
	}
	if len(fillers) < 1024 || len(records) < 1024 {
		t.Fatalf("ring populations too small: %d filler, %d sealed cells", len(fillers), len(records))
	}
	return fillers, records
}

// TestCompareContentHasPower: the detector is no rubber stamp. Against
// random blocks it flags plaintext under both statistics, flags a
// population whose bytes are merely biased (one value in 64 forced to
// zero) by histogram, and passes a second random population.
func TestCompareContentHasPower(t *testing.T) {
	const bs, n = 4096, 256
	rng := prng.NewFromUint64(21)
	random := func() [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = rng.Bytes(bs)
		}
		return out
	}
	base := random()

	text := make([][]byte, n)
	for i := range text {
		text[i] = bytes.Repeat([]byte(fmt.Sprintf("record %04d of the ledger; ", i)), bs/27+1)[:bs]
	}
	hist, cx, err := attack.CompareContent(base, text)
	if err != nil {
		t.Fatal(err)
	}
	if !hist.Detected || !cx.Detected {
		t.Fatalf("plaintext not detected: %+v / %+v", hist, cx)
	}

	biased := random()
	for _, blk := range biased {
		for j := 0; j < len(blk); j += 64 {
			blk[j] = 0
		}
	}
	if hist, _, err = attack.CompareContent(base, biased); err != nil {
		t.Fatal(err)
	}
	if !hist.Detected {
		t.Fatalf("biased bytes not detected: %+v", hist)
	}

	if hist, cx, err = attack.CompareContent(base, random()); err != nil {
		t.Fatal(err)
	}
	if hist.Detected || cx.Detected {
		t.Fatalf("two random populations separated: %+v / %+v", hist, cx)
	}
	if _, _, err := attack.CompareContent(nil, base); err == nil {
		t.Fatal("empty population accepted")
	}
}
