package journal

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

func newVol(t *testing.T, blockSize int, nBlocks, journal uint64) (*stegfs.Volume, *blockdev.Mem) {
	t.Helper()
	dev := blockdev.NewMem(blockSize, nBlocks)
	vol, err := stegfs.Format(dev, stegfs.FormatOptions{
		KDFIterations: 4,
		FillSeed:      []byte("journal-test"),
		JournalBlocks: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	return vol, dev
}

func testKey() sealer.Key { return sealer.DeriveKey([]byte("secret"), "journal-test-key") }

// appendFillers appends n OpDummy records as one batch, as a dummy
// burst's LogStream does.
func appendFillers(j *Journal, n int) error {
	return j.AppendBatch(n, func(_ int, r *Record) { r.Op = OpDummy })
}

func TestOpenRequiresRegion(t *testing.T) {
	vol, _ := newVol(t, 512, 64, 0)
	if _, err := Open(vol, testKey()); !errors.Is(err, ErrNoJournal) {
		t.Fatalf("Open on journalless volume: %v", err)
	}
}

func TestAppendScanRoundTrip(t *testing.T) {
	vol, _ := newVol(t, 512, 128, 16)
	j, err := Open(vol, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if recs, _ := j.Scan(); len(recs) != 0 {
		t.Fatalf("fresh ring has %d records", len(recs))
	}
	if err := j.AppendReloc(40, 41, 42); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendAlloc(40, []uint64{50, 51, 52}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendDummy(); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendFree(40, []uint64{50}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSave(40); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCheckpoint(); err != nil {
		t.Fatal(err)
	}
	recs, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	// The three-address list takes two cells.
	wantOps := []Op{OpReloc, OpAlloc, OpAlloc, OpDummy, OpFree, OpSave, OpCheckpoint}
	if len(recs) != len(wantOps) {
		t.Fatalf("scan returned %d records, want %d", len(recs), len(wantOps))
	}
	for i, rec := range recs {
		if rec.Op != wantOps[i] {
			t.Fatalf("record %d op %v, want %v", i, rec.Op, wantOps[i])
		}
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d seq %d", i, rec.Seq)
		}
	}
	if recs[0].OldLoc != 41 || recs[0].NewLoc != 42 || recs[0].FileH != 40 {
		t.Fatalf("reloc decoded as %+v", recs[0])
	}
	if !slices.Equal(recs[1].Locs, []uint64{50, 51}) || !slices.Equal(recs[2].Locs, []uint64{52}) || recs[2].FileH != 40 {
		t.Fatalf("alloc decoded as %+v, %+v", recs[1], recs[2])
	}
	if !slices.Equal(recs[4].Locs, []uint64{50}) {
		t.Fatalf("free decoded as %+v", recs[4])
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	vol, _ := newVol(t, 512, 128, 16)
	key := testKey()
	j, err := Open(vol, key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.AppendDummy(); err != nil {
			t.Fatal(err)
		}
	}
	// The newest record is in slot 0 (8 cells of 512 bytes), so the
	// reopened ring resumes at the first cell of slot 1.
	j2, err := Open(vol, key)
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.Seq(); got != 9 {
		t.Fatalf("reopened journal resumes at seq %d, want 9", got)
	}
	if err := j2.AppendSave(7); err != nil {
		t.Fatal(err)
	}
	recs, _ := j2.Scan()
	if len(recs) != 6 || recs[5].Op != OpSave || recs[5].Seq != 9 {
		t.Fatalf("append after reopen: %+v", recs)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	vol, _ := newVol(t, 512, 128, 8)
	j, err := Open(vol, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if j.Capacity() != 64 {
		t.Fatalf("8 slots of 512 bytes hold %d records, want 64", j.Capacity())
	}
	for i := uint64(0); i < 150; i++ {
		if err := j.AppendAlloc(100+i, []uint64{200 + i}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 64 {
		t.Fatalf("wrapped ring holds %d records, want 64", len(recs))
	}
	if recs[0].Seq != 87 || recs[63].Seq != 150 {
		t.Fatalf("wrapped ring seq range [%d,%d], want [87,150]", recs[0].Seq, recs[63].Seq)
	}
	// The reopened ring resumes at the slot after the newest record's,
	// not behind the highest cell: record 150 sits in cell 21 of slot
	// 2, so the resume is cell 24, sequence number 153.
	j2, err := Open(vol, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if j2.Seq() != 153 {
		t.Fatalf("wrapped ring resumes at %d, want 153", j2.Seq())
	}
}

func TestAppendDummiesBatchesAndWraps(t *testing.T) {
	vol, _ := newVol(t, 512, 128, 8)
	j, err := Open(vol, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSave(99); err != nil {
		t.Fatal(err)
	}
	if err := appendFillers(j, 70); err != nil { // wraps past cell 64
		t.Fatal(err)
	}
	if j.Seq() != 72 {
		t.Fatalf("next seq %d after 71 records, want 72", j.Seq())
	}
	recs, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	// Only the cell that opens each slot write is sealed: cell 1 of
	// slot 0 (the save holds cell 0), cell 0 of slots 1–7, and cell 0
	// again after the wrap, whose write over cells 0–6 turned the save
	// and cell 1 into filler. The other 56 cells hold filler.
	want := []uint64{9, 17, 25, 33, 41, 49, 57, 65}
	if len(recs) != len(want) {
		t.Fatalf("ring holds %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Op != OpDummy || rec.Seq != want[i] {
			t.Fatalf("record %d is %v at seq %d, want dummy at %d", i, rec.Op, rec.Seq, want[i])
		}
	}
	// A reopen cannot tell where the fillers after seq 65 ended, and
	// resumes at the next slot.
	j2, err := Open(vol, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if j2.Seq() != 73 {
		t.Fatalf("reopened ring resumes at %d, want 73", j2.Seq())
	}
}

func TestTornSlotIsIgnored(t *testing.T) {
	vol, dev := newVol(t, 512, 128, 8)
	j, err := Open(vol, testKey())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.AppendReloc(10, 11, 12); err != nil {
			t.Fatal(err)
		}
	}
	// Damage the middle record: the back half of cell 1 of ring slot 0
	// (volume block 1). Its neighbours in the same block must not care.
	raw := make([]byte, 512)
	if err := dev.ReadBlock(1, raw); err != nil {
		t.Fatal(err)
	}
	copy(raw[CellSize+CellSize/2:2*CellSize], bytes.Repeat([]byte{0xAB}, CellSize/2))
	if err := dev.WriteBlock(1, raw); err != nil {
		t.Fatal(err)
	}
	recs, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("scan after a torn cell returned %d records, want 2", len(recs))
	}
	if recs[0].Seq != 1 || recs[1].Seq != 3 {
		t.Fatalf("surviving seqs %d,%d", recs[0].Seq, recs[1].Seq)
	}
}

func TestWrongKeySeesNothing(t *testing.T) {
	vol, _ := newVol(t, 512, 128, 8)
	j, err := Open(vol, testKey())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.AppendReloc(1, 2, 3); err != nil {
			t.Fatal(err)
		}
	}
	other, err := Open(vol, sealer.DeriveKey([]byte("intruder"), "journal-test-key"))
	if err != nil {
		t.Fatal(err)
	}
	if recs, _ := other.Scan(); len(recs) != 0 {
		t.Fatalf("foreign key decoded %d records", len(recs))
	}
	if other.Seq() != 1 {
		t.Fatalf("foreign key sees seq horizon %d", other.Seq())
	}
}

// changedCells returns the ring cells (slot·k + cell) that differ
// between two snapshots of a volume whose ring has the given slots, and
// fails the test if any ring byte outside a whole cell differs.
func changedCells(t *testing.T, before, after []byte, bs int, slots uint64) []uint64 {
	t.Helper()
	k := bs / CellSize
	var cells []uint64
	for s := uint64(0); s < slots; s++ {
		b, a := before[(1+s)*uint64(bs):][:bs], after[(1+s)*uint64(bs):][:bs]
		for c := 0; c < k; c++ {
			if !bytes.Equal(b[c*CellSize:(c+1)*CellSize], a[c*CellSize:(c+1)*CellSize]) {
				cells = append(cells, s*uint64(k)+uint64(c))
			}
		}
		if !bytes.Equal(b[k*CellSize:], a[k*CellSize:]) {
			t.Fatalf("slot %d changed past its last cell", s)
		}
	}
	if !bytes.Equal(before[:bs], after[:bs]) || !bytes.Equal(before[(1+slots)*uint64(bs):], after[(1+slots)*uint64(bs):]) {
		t.Fatal("an append changed bytes outside the ring")
	}
	return cells
}

// TestAppendChangesExactlyItsCells: an append of n records changes
// exactly the n cells their sequence numbers name and no other byte of
// the volume, whatever the records say and however they are batched —
// so the snapshot attacker counts stream elements, never batch sizes,
// and a filler touches the disk exactly as a relocation intent does.
func TestAppendChangesExactlyItsCells(t *testing.T) {
	const bs, slots = 4096, 4
	vol, dev := newVol(t, bs, 64, slots)
	j, err := Open(vol, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if j.Capacity() != slots*64 {
		t.Fatalf("%d slots of %d bytes hold %d records", slots, bs, j.Capacity())
	}
	mixed := func(n int) func() error {
		return func() error {
			return j.AppendBatch(n, func(i int, r *Record) {
				r.Op = OpDummy
				if i%3 == 1 {
					*r = Record{Op: OpReloc, FileH: 9, OldLoc: uint64(i), NewLoc: uint64(i + 1)}
				}
			})
		}
	}
	appends := []struct {
		n  int // cells the append must change
		do func() error
	}{
		{1, j.AppendDummy},
		{1, func() error { return j.AppendReloc(9, 10, 11) }},
		{5, func() error { return j.AppendAlloc(9, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) }},
		{1, func() error { return j.AppendSave(9) }},
		{1, j.AppendCheckpoint},
		{16, func() error { return appendFillers(j, 16) }},
		{16, mixed(16)},
		{64, mixed(64)},   // straddles a slot edge
		{200, mixed(200)}, // wraps the ring end
	}
	for i, ap := range appends {
		first := j.Seq() - 1
		before := dev.Snapshot()
		if err := ap.do(); err != nil {
			t.Fatal(err)
		}
		got := changedCells(t, before, dev.Snapshot(), bs, slots)
		want := make([]uint64, ap.n)
		for c := range want {
			want[c] = (first + uint64(c)) % j.Capacity()
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("append %d changed cells %v, want %v", i, got, want)
		}
	}
}

// TestTornAppendSparesDurableCells: a power cut that tears the slot
// writes of an append can damage only that append's cells, and the
// reopened ring resumes at the first cell of the slot after the last
// one whose opening cell landed — a function of where the cut fell,
// never of which cells were filler. A filler batch and a data run of
// the same geometry, both straddling two slots, are cut at each whole
// block and at byte fractions of it: both resume at the same sequence
// number, the durable records and every landed record still decode,
// and the next append rewrites no cell that landed before the cut.
func TestTornAppendSparesDurableCells(t *testing.T) {
	const bs, durable, inflight = 512, 5, 8 // cells 5–7 of slot 0 and 0–4 of slot 1
	const k = bs / CellSize
	kinds := []struct {
		name string
		fill func(i int, r *Record)
	}{
		{"filler", func(_ int, r *Record) { r.Op = OpDummy }},
		{"data", func(i int, r *Record) {
			*r = Record{Op: OpReloc, FileH: 9, OldLoc: 300 + uint64(i), NewLoc: 400 + uint64(i)}
		}},
	}
	for whole := int64(0); whole < 2; whole++ {
		for _, frac := range []float64{0, 0.1, 0.12, 0.55, 0.6, 0.63, 0.7, 0.99} {
			// The tear keeps a prefix of frac of slot `whole`'s new
			// image; the slots before it landed whole.
			landed := map[uint64]bool{}
			for c := uint64(durable); c < durable+inflight; c++ {
				if s := int64(c / k); s < whole || (s == whole && int(c%k+1)*CellSize <= int(frac*bs)) {
					landed[c] = true
				}
			}
			wantResume := uint64(k + 1)
			if landed[k] {
				wantResume = 2*k + 1
			}
			for _, kind := range kinds {
				mem := blockdev.NewMem(bs, 64)
				fd := blockdev.NewFault(mem)
				vol, err := stegfs.Format(fd, stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("torn"), JournalBlocks: 4})
				if err != nil {
					t.Fatal(err)
				}
				j, err := Open(vol, testKey())
				if err != nil {
					t.Fatal(err)
				}
				for i := uint64(0); i < durable; i++ {
					if err := j.AppendReloc(7, 100+i, 200+i); err != nil {
						t.Fatal(err)
					}
				}
				fd.PowerCutTorn(whole, frac)
				if err := j.AppendBatch(inflight, kind.fill); !errors.Is(err, blockdev.ErrPowerCut) {
					t.Fatalf("%s, %d whole + %v: torn append returned %v", kind.name, whole, frac, err)
				}
				fd.Heal()
				torn := mem.Snapshot()
				j2, err := Open(vol, testKey())
				if err != nil {
					t.Fatal(err)
				}
				if j2.Seq() != wantResume {
					t.Fatalf("%s, %d whole + %v: resume at %d, want %d", kind.name, whole, frac, j2.Seq(), wantResume)
				}
				recs, err := j2.Scan()
				if err != nil {
					t.Fatal(err)
				}
				// A filler batch seals only the cells that open its two
				// slot writes, cells 5 and 8; a data run seals them all.
				want := durable
				for c := range landed {
					if kind.name == "data" || c == durable || c == k {
						want++
					}
				}
				if len(recs) != want {
					t.Fatalf("%s, %d whole + %v: %d records survive, want %d", kind.name, whole, frac, len(recs), want)
				}
				for i, r := range recs[:durable] {
					if r.Seq != uint64(i+1) || r.Op != OpReloc || r.OldLoc != 100+uint64(i) || r.NewLoc != 200+uint64(i) {
						t.Fatalf("%s, %d whole + %v: durable record %d reads %+v", kind.name, whole, frac, i, r)
					}
				}
				if err := j2.AppendBatch(inflight, kind.fill); err != nil {
					t.Fatal(err)
				}
				now := mem.Snapshot()
				for _, c := range changedCells(t, torn, now, bs, 4) {
					if c < durable || landed[c] {
						t.Fatalf("%s, %d whole + %v: the next append rewrote cell %d, which landed before the cut", kind.name, whole, frac, c)
					}
				}
				at := (1 + (wantResume-1)/k) * bs // the resume cell opens this block of the volume
				if bytes.Equal(now[at:at+sealer.IVSize], torn[at:at+sealer.IVSize]) {
					t.Fatalf("%s, %d whole + %v: the next append kept the IV its first cell held", kind.name, whole, frac)
				}
			}
		}
	}
}

// TestFailedAppendLeavesNoIntent: a batch whose ring write fails (an
// I/O error, not a power cut) leaves none of its sealed records in the
// cached slot, so the next append, which rewrites that slot whole,
// lands only its own record.
func TestFailedAppendLeavesNoIntent(t *testing.T) {
	mem := blockdev.NewMem(512, 64)
	fd := blockdev.NewFault(mem)
	vol, err := stegfs.Format(fd, stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("failed"), JournalBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	j, err := Open(vol, testKey())
	if err != nil {
		t.Fatal(err)
	}
	fd.FailWritesAfter(0)
	err = j.AppendBatch(6, func(i int, r *Record) {
		*r = Record{Op: OpReloc, FileH: 9, OldLoc: 300 + uint64(i), NewLoc: 400 + uint64(i)}
	})
	if !errors.Is(err, blockdev.ErrInjected) {
		t.Fatalf("failed append returned %v", err)
	}
	fd.Heal()
	if err := j.AppendReloc(7, 100, 200); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(vol, testKey())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := j2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 || recs[0].FileH != 7 || recs[0].OldLoc != 100 || recs[0].NewLoc != 200 {
		t.Fatalf("the slot holds %+v, want only the record appended after the failure", recs)
	}
}

func TestResolveNewestFirstWins(t *testing.T) {
	// Location 70 appears in two files' intents; the newer file's
	// header decides it.
	refs := map[uint64]map[uint64]bool{
		10: nil,                  // file 10: never saved
		20: {20: true, 70: true}, // file 20 owns 70
		30: {30: true, 31: true}, // file 30: reloc rolled back
	}
	resolve := func(fileH uint64) (map[uint64]bool, error) {
		r, ok := refs[fileH]
		if !ok || r == nil {
			return nil, stegfs.ErrNotFound
		}
		return r, nil
	}
	recs := []Record{
		{Seq: 1, Op: OpAlloc, FileH: 10, Locs: []uint64{70}},
		{Seq: 2, Op: OpAlloc, FileH: 20, Locs: []uint64{70}},
		{Seq: 3, Op: OpReloc, FileH: 30, OldLoc: 31, NewLoc: 32},
	}
	res, err := Resolve(recs, resolve)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := map[uint64]Verdict{}
	for _, v := range res.Verdicts {
		verdicts[v.Loc] = v
	}
	if v := verdicts[70]; !v.Used || v.Seq != 2 {
		t.Fatalf("loc 70 verdict %+v, want used by seq 2", v)
	}
	if v := verdicts[31]; !v.Used {
		t.Fatalf("rolled-back reloc old loc should stay used: %+v", v)
	}
	if v := verdicts[32]; v.Used {
		t.Fatalf("rolled-back reloc new loc should be free: %+v", v)
	}
	if res.Committed[3] {
		t.Fatal("reloc 3 reported committed; header references oldLoc")
	}
}

func TestFsckReportsPending(t *testing.T) {
	vol, _ := newVol(t, 512, 128, 16)
	key := testKey()
	j, err := Open(vol, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendAlloc(40, []uint64{50}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSave(40); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendReloc(40, 50, 60); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendReloc(41, 51, 61); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSave(41); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(vol, key)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != 5 {
		t.Fatalf("fsck valid %d", rep.Valid)
	}
	if len(rep.Pending) != 1 || rep.Pending[0].Seq != 3 {
		t.Fatalf("pending %+v, want the uncovered reloc (seq 3)", rep.Pending)
	}
	if rep.Ok() {
		t.Fatal("dirty ring reported Ok")
	}
}

func TestReopenAfterTornAppendDoesNotReuseIV(t *testing.T) {
	// A torn append leaves its IV on disk while the resume sequence
	// stays put; the reopened journal must not replay that IV onto the
	// same cell (an unchanged-IV overwrite would prove the cell holds
	// keyed structure).
	vol, dev := newVol(t, 512, 128, 8)
	key := testKey()
	j, err := Open(vol, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendReloc(10, 11, 12); err != nil {
		t.Fatal(err)
	}
	// Tear cell 0 of ring slot 0 (volume block 1): the IV survives,
	// the record body does not, so a rescan resumes at seq 1.
	raw := make([]byte, 512)
	if err := dev.ReadBlock(1, raw); err != nil {
		t.Fatal(err)
	}
	tornIV := append([]byte(nil), raw[:sealer.IVSize]...)
	copy(raw[sealer.IVSize+32:], bytes.Repeat([]byte{0xEE}, 64))
	if err := dev.WriteBlock(1, raw); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(vol, key)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Seq() != 1 {
		t.Fatalf("resume seq %d, want 1 (torn record dropped)", j2.Seq())
	}
	if err := j2.AppendSave(99); err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadBlock(1, raw); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(raw[:sealer.IVSize], tornIV) {
		t.Fatal("re-append after a torn write reused the on-disk IV")
	}
}

func TestCoveredNeedsALaterSaveOfTheSameFile(t *testing.T) {
	recs := []Record{
		{Seq: 1, Op: OpAlloc, FileH: 10, Locs: []uint64{50}},
		{Seq: 2, Op: OpSave, FileH: 10},
		{Seq: 3, Op: OpReloc, FileH: 10, OldLoc: 50, NewLoc: 60},
		{Seq: 4, Op: OpFree, FileH: 20, Locs: []uint64{70}},
		{Seq: 5, Op: OpSave, FileH: 30},
	}
	covered := Covered(recs)
	for i, want := range map[int]bool{0: true, 2: false, 3: false} {
		if got := covered(recs[i]); got != want {
			t.Errorf("seq %d %s of file %d: covered %v, want %v", recs[i].Seq, recs[i].Op, recs[i].FileH, got, want)
		}
	}
}
