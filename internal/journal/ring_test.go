package journal

import (
	"bytes"
	"errors"
	"os"
	"slices"
	"testing"

	"steghide/internal/attack"
	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// Two ring fixtures, both 512-byte blocks, both under fixtureKey.
//
// testdata/parent_ring.img is a 32-block volume whose 16-slot ring was
// written in the one-record-per-slot format by the commit before the
// batch append (stdlib CBC, one device write per slot), by:
//
//	Format(NewMem(512, 32), {KDFIterations: 4, FillSeed: "ring-fixture", JournalBlocks: 16})
//	Open(vol, fixtureKey()), then fixtureRecords in order, through
//	AppendAlloc/AppendReloc/AppendDummy/AppendDummies(5)/AppendSave/
//	AppendFree/AppendCheckpoint — 22 records, so the ring has wrapped.
//
// testdata/cell_ring.img is a 16-block volume whose 4-slot ring (32
// cells) was written by the commit that introduced cells, one append
// call per record, by:
//
//	Format(NewMem(512, 16), {KDFIterations: 4, FillSeed: "ring-fixture", JournalBlocks: 4})
//	Open(vol, fixtureKey()), then appendSingly(j, cellFixtureRecords())
//	— 46 cells, so the ring has wrapped.
const (
	fixtureBS        = 512
	fixtureSlots     = 16
	cellFixtureSlots = 4
)

func fixtureKey() sealer.Key { return sealer.DeriveKey([]byte("ring-fixture"), "journal") }

// fixtureRecords is the append sequence of the parent fixture.
func fixtureRecords() []Record {
	recs := []Record{{Op: OpAlloc, FileH: 40, Locs: []uint64{41, 42, 43}}}
	for i := uint64(0); i < 6; i++ {
		recs = append(recs, Record{Op: OpReloc, FileH: 40, OldLoc: 41 + i, NewLoc: 50 + i}, Record{Op: OpDummy})
	}
	for i := 0; i < 5; i++ {
		recs = append(recs, Record{Op: OpDummy})
	}
	return append(recs,
		Record{Op: OpSave, FileH: 40},
		Record{Op: OpFree, FileH: 40, Locs: []uint64{41}},
		Record{Op: OpCheckpoint},
		Record{Op: OpReloc, FileH: 44, OldLoc: 45, NewLoc: 46})
}

// cellFixtureRecords is the append sequence of the cell fixture: the
// parent's twice over, its address lists split as appendList splits
// them.
func cellFixtureRecords() []Record {
	var recs []Record
	for _, r := range append(fixtureRecords(), fixtureRecords()...) {
		if len(r.Locs) <= cellLocs {
			recs = append(recs, r)
			continue
		}
		for i := 0; i < listCells(r.Locs); i++ {
			recs = append(recs, Record{Op: r.Op, FileH: r.FileH, Locs: listPart(r.Locs, i)})
		}
	}
	return recs
}

// appendSingly appends recs one call at a time.
func appendSingly(j *Journal, recs []Record) error {
	for _, r := range recs {
		if err := j.append(r); err != nil {
			return err
		}
	}
	return nil
}

// loadFixture copies a committed volume image onto a fresh device.
func loadFixture(t *testing.T, path string) *blockdev.Mem {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dev := blockdev.NewMem(fixtureBS, uint64(len(img)/fixtureBS))
	for i := uint64(0); i < dev.NumBlocks(); i++ {
		if err := dev.WriteBlock(i, img[i*fixtureBS:(i+1)*fixtureBS]); err != nil {
			t.Fatal(err)
		}
	}
	return dev
}

// sameIntent compares everything of two records but the sequence number.
func sameIntent(a, b Record) bool {
	return a.Op == b.Op && a.FileH == b.FileH && a.OldLoc == b.OldLoc && a.NewLoc == b.NewLoc && slices.Equal(a.Locs, b.Locs)
}

// checkUpgradedFixture asserts that the ring of vol, once the parent
// fixture, now holds the parent's surviving records as cells: parent
// record s at sequence number (s−1)·k+1, fillers up to s·k, nothing
// else.
func checkUpgradedFixture(t *testing.T, vol *stegfs.Volume) {
	t.Helper()
	const k = fixtureBS / CellSize
	j, err := Open(vol, fixtureKey())
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	all := fixtureRecords()
	lo := len(all) - fixtureSlots // parent records lo+1 … len(all) survived the wrap
	if len(got) != fixtureSlots*k {
		t.Fatalf("%d records in the upgraded ring, want %d", len(got), fixtureSlots*k)
	}
	for i, g := range got {
		if g.Seq != uint64(lo*k+i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, g.Seq, lo*k+i+1)
		}
		want := Record{Op: OpDummy}
		if i%k == 0 {
			want = all[lo+i/k]
		}
		if !sameIntent(g, want) {
			t.Fatalf("seq %d: got %+v, want %+v", g.Seq, g, want)
		}
	}
	if j.Seq() != uint64(len(all)*k)+1 {
		t.Fatalf("resume point %d after %d parent records", j.Seq(), len(all))
	}
	rep, err := Fsck(vol, fixtureKey())
	if err != nil {
		t.Fatal(err)
	}
	// Two intents follow the last save: the free and the last reloc.
	if rep.Valid != fixtureSlots*k || rep.Missing != 0 || len(rep.Pending) != 2 || rep.LastCheckpoint != 20*k+1 {
		t.Fatalf("fsck of the upgraded ring: %+v", rep)
	}
}

// TestParentRingReadsHere is the upgrade test: Open recognises a ring
// the parent commit's code wrote, recovers every surviving record with
// the read-only decoder and rewrites the ring as cells — same records,
// same order, each in the cell its new sequence number names — and a
// second Open finds nothing left to convert.
func TestParentRingReadsHere(t *testing.T) {
	dev := loadFixture(t, "testdata/parent_ring.img")
	vol, err := stegfs.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	before := dev.Snapshot()
	if _, err := Open(vol, sealer.DeriveKey([]byte("intruder"), "journal")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dev.Snapshot(), before) {
		t.Fatal("an Open under a foreign key rewrote the ring")
	}
	checkUpgradedFixture(t, vol)
	// A slot still in the parent format would be converted again.
	after := dev.Snapshot()
	checkUpgradedFixture(t, vol)
	if !bytes.Equal(dev.Snapshot(), after) {
		t.Fatal("reopening an upgraded ring rewrote it")
	}
	// Appends continue behind the converted stream.
	j, err := Open(vol, fixtureKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSave(44); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(vol, fixtureKey())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Missing != 0 || len(rep.Pending) != 1 {
		t.Fatalf("fsck after an append to the upgraded ring: %+v", rep)
	}
}

// TestUpgradeSurvivesPowerCut cuts the power at every block write of
// the upgrade: each slot is converted by one write, so whatever the cut
// leaves is whole slots of either format, and the next Open finishes
// the job with every record accounted for.
func TestUpgradeSurvivesPowerCut(t *testing.T) {
	for cut := int64(0); cut < fixtureSlots; cut++ {
		mem := loadFixture(t, "testdata/parent_ring.img")
		fd := blockdev.NewFault(mem)
		vol, err := stegfs.Open(fd)
		if err != nil {
			t.Fatal(err)
		}
		fd.PowerCutAfterWrites(cut)
		if _, err := Open(vol, fixtureKey()); !errors.Is(err, blockdev.ErrPowerCut) {
			t.Fatalf("cut %d: Open returned %v", cut, err)
		}
		fd.Heal()
		checkUpgradedFixture(t, vol)
	}
}

// TestUpgradeRefusesOversizeList: a parent record with more addresses
// than a slot of cells holds cannot be converted in place; Open says so
// instead of dropping the intent. The record is sealed by hand — no
// code writes the parent format any more.
func TestUpgradeRefusesOversizeList(t *testing.T) {
	const bs = 128 // two cells per slot: room for four addresses
	dev := blockdev.NewMem(bs, 32)
	vol, err := stegfs.Format(dev, stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("oversize"), JournalBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	j, err := Open(vol, fixtureKey())
	if err != nil {
		t.Fatal(err)
	}
	// Hand-seal one parent-format record of five addresses into slot 0.
	area := make([]byte, bs-sealer.IVSize)
	copy(area, parentMagic)
	area[4], area[5] = byte(OpAlloc), 5
	be.PutUint64(area[8:], 1)
	be.PutUint64(area[16:], 40)
	for i := 0; i < 5; i++ {
		be.PutUint64(area[recFixed+8*i:], uint64(41+i))
	}
	be.PutUint64(area[len(area)-recTagSize:], j.tagger.tag(area[:recFixed+8*5]))
	key := fixtureKey()
	seal, err := sealer.New(sealer.DeriveKey(key[:], "journal-slot-seal"), bs)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, bs)
	if err := seal.Seal(raw, make([]byte, sealer.IVSize), area); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteBlock(1, raw); err != nil {
		t.Fatal(err)
	}
	before := dev.Snapshot()
	if _, err := Open(vol, fixtureKey()); !errors.Is(err, ErrRecordBig) {
		t.Fatalf("Open of a ring with an oversize parent record: %v", err)
	}
	if !bytes.Equal(dev.Snapshot(), before) {
		t.Fatal("the refused upgrade wrote to the ring")
	}
}

// freshCellFixtureVolume formats the volume the cell fixture started from.
func freshCellFixtureVolume(t *testing.T) (*stegfs.Volume, *blockdev.Mem) {
	t.Helper()
	dev := blockdev.NewMem(fixtureBS, 16)
	vol, err := stegfs.Format(dev, stegfs.FormatOptions{
		KDFIterations: 4, FillSeed: []byte("ring-fixture"), JournalBlocks: cellFixtureSlots,
	})
	if err != nil {
		t.Fatal(err)
	}
	return vol, dev
}

// TestBatchRingBytesMatchSingleAppends: for one journal key, starting
// sequence and IV stream, the same records leave the same ring bytes
// whether they are appended one call at a time, as one batch that
// straddles slot edges and wraps the ring end, or — the committed
// fixture — by the single-append path of the commit that introduced
// cells: the lanes and the run-sized device writes change how a cell is
// produced, never what the ring holds.
func TestBatchRingBytesMatchSingleAppends(t *testing.T) {
	recs := cellFixtureRecords()
	ring := func(fill func(j *Journal) error) []byte {
		t.Helper()
		vol, dev := freshCellFixtureVolume(t)
		j, err := Open(vol, fixtureKey())
		if err != nil {
			t.Fatal(err)
		}
		if err := fill(j); err != nil {
			t.Fatal(err)
		}
		return dev.Snapshot()[fixtureBS : (1+cellFixtureSlots)*fixtureBS]
	}
	single := ring(func(j *Journal) error { return appendSingly(j, recs) })
	batch := ring(func(j *Journal) error {
		return j.AppendBatch(len(recs), func(i int, r *Record) { *r = recs[i] })
	})
	lists := ring(func(j *Journal) error {
		// The public list appends split exactly as the fixture's records do.
		for _, r := range append(fixtureRecords(), fixtureRecords()...) {
			var err error
			switch r.Op {
			case OpAlloc:
				err = j.AppendAlloc(r.FileH, r.Locs)
			case OpFree:
				err = j.AppendFree(r.FileH, r.Locs)
			default:
				err = j.append(r)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	img, err := os.ReadFile("testdata/cell_ring.img")
	if err != nil {
		t.Fatal(err)
	}
	committed := img[fixtureBS : (1+cellFixtureSlots)*fixtureBS]
	if !bytes.Equal(single, committed) {
		t.Error("single appends leave a ring different from the committed one")
	}
	if !bytes.Equal(batch, committed) {
		t.Error("one wrapping batch leaves a ring different from the committed one")
	}
	if !bytes.Equal(lists, committed) {
		t.Error("AppendAlloc/AppendFree leave a ring different from the committed one")
	}
}

// TestRingContentLooksLikeFill is the content-inspecting adversary on
// the ring: slots whose every cell holds a sealed record — fillers,
// relocation intents and address lists, with their fixed magic, zero
// padding and small integers under the seal — against slots still
// holding the format's random fill. Neither the pooled byte histogram
// nor the per-block deflate ratio may tell the populations apart.
func TestRingContentLooksLikeFill(t *testing.T) {
	const bs, slots = 4096, 128
	vol, dev := newVol(t, bs, 2*slots+16, 2*slots)
	j, err := Open(vol, testKey())
	if err != nil {
		t.Fatal(err)
	}
	rng := prng.NewFromUint64(7)
	for done := uint64(0); done < slots*j.k; done += 64 {
		err := j.AppendBatch(64, func(i int, r *Record) {
			switch rng.Uint64n(4) {
			case 0:
				*r = Record{Op: OpReloc, FileH: 300 + rng.Uint64n(8), OldLoc: 400 + rng.Uint64n(4096), NewLoc: 400 + rng.Uint64n(4096)}
			case 1:
				*r = Record{Op: OpAlloc, FileH: 300, Locs: []uint64{400 + uint64(i), 401 + uint64(i)}}
			default:
				r.Op = OpDummy
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	snap := dev.Snapshot()
	var written, fill [][]byte
	for s := 0; s < 2*slots; s++ {
		blk := snap[(1+s)*bs : (2+s)*bs]
		if s < slots {
			written = append(written, blk)
		} else {
			fill = append(fill, blk)
		}
	}
	hist, complexity, err := attack.CompareContent(written, fill)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("histogram: %s (p=%.3f); complexity: %s (p=%.3f)", hist.Evidence, hist.PValue, complexity.Evidence, complexity.PValue)
	if hist.Detected || complexity.Detected {
		t.Fatalf("fully written ring slots are distinguishable from random fill: %+v / %+v", hist, complexity)
	}
}
