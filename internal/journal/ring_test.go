package journal

import (
	"bytes"
	"os"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// The ring fixture: testdata/parent_ring.img is a 32-block volume whose
// 16-slot ring was written by the commit before the batch append
// (stdlib CBC, one device write per slot), by:
//
//	Format(NewMem(512, 32), {KDFIterations: 4, FillSeed: "ring-fixture", JournalBlocks: 16})
//	Open(vol, DeriveKey("ring-fixture", "journal")), then fixtureRecords in order,
//	through AppendAlloc/AppendReloc/AppendDummy/AppendDummies(5)/AppendSave/
//	AppendFree/AppendCheckpoint — 22 records, so the ring has wrapped.
const (
	fixtureBS    = 512
	fixtureSlots = 16
)

func fixtureKey() sealer.Key { return sealer.DeriveKey([]byte("ring-fixture"), "journal") }

// fixtureRecords is the append sequence of the fixture.
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

// freshFixtureVolume formats the volume the fixture started from.
func freshFixtureVolume(t *testing.T) (*stegfs.Volume, *blockdev.Mem) {
	t.Helper()
	dev := blockdev.NewMem(fixtureBS, 32)
	vol, err := stegfs.Format(dev, stegfs.FormatOptions{
		KDFIterations: 4, FillSeed: []byte("ring-fixture"), JournalBlocks: fixtureSlots,
	})
	if err != nil {
		t.Fatal(err)
	}
	return vol, dev
}

// TestParentRingReadsHere: Scan and Fsck of a ring the parent commit's
// code wrote find every surviving record, in order, field for field.
func TestParentRingReadsHere(t *testing.T) {
	img, err := os.ReadFile("testdata/parent_ring.img")
	if err != nil {
		t.Fatal(err)
	}
	dev := blockdev.NewMem(fixtureBS, uint64(len(img)/fixtureBS))
	for i := uint64(0); i < dev.NumBlocks(); i++ {
		if err := dev.WriteBlock(i, img[i*fixtureBS:(i+1)*fixtureBS]); err != nil {
			t.Fatal(err)
		}
	}
	vol, err := stegfs.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	j, err := Open(vol, fixtureKey())
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	all := fixtureRecords()
	want := all[len(all)-fixtureSlots:]
	if len(got) != len(want) {
		t.Fatalf("%d records survive in the parent's ring, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		w.Seq = uint64(len(all) - fixtureSlots + i + 1)
		if g.Seq != w.Seq || g.Op != w.Op || g.FileH != w.FileH || g.OldLoc != w.OldLoc || g.NewLoc != w.NewLoc ||
			len(g.Locs) != len(w.Locs) || (len(w.Locs) > 0 && g.Locs[0] != w.Locs[0]) {
			t.Fatalf("record %d: got %+v, want %+v", i, g, w)
		}
	}
	if j.Seq() != uint64(len(all))+1 {
		t.Fatalf("resume point %d after %d records", j.Seq(), len(all))
	}
	rep, err := Fsck(vol, fixtureKey())
	if err != nil {
		t.Fatal(err)
	}
	// Two intents follow the last save: the free and the last reloc.
	if rep.Valid != fixtureSlots || rep.Missing != 0 || len(rep.Pending) != 2 || rep.LastCheckpoint != 21 {
		t.Fatalf("fsck of the parent's ring: %+v", rep)
	}
}

// TestBatchRingBytesMatchSingleAppends: for one journal key, starting
// sequence and IV stream, the same records leave the same ring bytes
// whether they are appended one call at a time, as one batch that wraps
// the ring end, or — the committed fixture — by the parent commit's
// one-slot-at-a-time stdlib code: the lanes and the run-sized device
// writes change how a slot is produced, never what it holds.
func TestBatchRingBytesMatchSingleAppends(t *testing.T) {
	recs := fixtureRecords()
	ring := func(fill func(j *Journal) error) []byte {
		t.Helper()
		vol, dev := freshFixtureVolume(t)
		j, err := Open(vol, fixtureKey())
		if err != nil {
			t.Fatal(err)
		}
		if err := fill(j); err != nil {
			t.Fatal(err)
		}
		return dev.Snapshot()[fixtureBS : (1+fixtureSlots)*fixtureBS]
	}
	single := ring(func(j *Journal) error {
		for _, r := range recs {
			if err := j.append(r); err != nil {
				return err
			}
		}
		return nil
	})
	batch := ring(func(j *Journal) error {
		return j.AppendBatch(len(recs), func(i int, r *Record) { *r = recs[i] })
	})
	img, err := os.ReadFile("testdata/parent_ring.img")
	if err != nil {
		t.Fatal(err)
	}
	parent := img[fixtureBS : (1+fixtureSlots)*fixtureBS]
	if !bytes.Equal(single, parent) {
		t.Error("single appends leave a ring different from the parent commit's")
	}
	if !bytes.Equal(batch, parent) {
		t.Error("one wrapping batch leaves a ring different from the parent commit's")
	}
}
