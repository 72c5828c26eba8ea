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
	j2, err := Open(vol, key)
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.Seq(); got != 6 {
		t.Fatalf("reopened journal resumes at seq %d, want 6", got)
	}
	if err := j2.AppendSave(7); err != nil {
		t.Fatal(err)
	}
	recs, _ := j2.Scan()
	if len(recs) != 6 || recs[5].Op != OpSave || recs[5].Seq != 6 {
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
	// The reopened ring resumes behind the newest record, not behind
	// the highest cell.
	j2, err := Open(vol, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if j2.Seq() != 151 {
		t.Fatalf("wrapped ring resumes at %d, want 151", j2.Seq())
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
	if err := j.AppendDummies(70); err != nil { // wraps past cell 64
		t.Fatal(err)
	}
	recs, err := j.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 64 {
		t.Fatalf("ring holds %d records", len(recs))
	}
	for _, rec := range recs {
		if rec.Op != OpDummy {
			t.Fatalf("unexpected %v after dummy burst", rec.Op)
		}
	}
	if recs[63].Seq != 71 {
		t.Fatalf("last seq %d, want 71", recs[63].Seq)
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
		{16, func() error { return j.AppendDummies(16) }},
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
// rewrite of an append can damage only that append's cells. Every cell
// the slot already held is rewritten with the bytes it had, so wherever
// the tear falls the durable records still decode, the torn cell reads
// as empty, and the reopened ring resumes on it with a fresh IV.
func TestTornAppendSparesDurableCells(t *testing.T) {
	const durable, inflight = 5, 3
	for _, frac := range []float64{0, 0.1, 0.55, 0.6, 0.63, 0.7, 0.99} {
		mem := blockdev.NewMem(512, 64)
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
		fd.PowerCutTorn(0, frac)
		err = j.AppendBatch(inflight, func(i int, r *Record) { *r = Record{Op: OpSave, FileH: uint64(i)} })
		if !errors.Is(err, blockdev.ErrPowerCut) {
			t.Fatalf("frac %v: torn append returned %v", frac, err)
		}
		fd.Heal()
		torn := mem.Snapshot()[512 : 2*512]
		j2, err := Open(vol, testKey())
		if err != nil {
			t.Fatal(err)
		}
		recs, err := j2.Scan()
		if err != nil {
			t.Fatal(err)
		}
		// The tear keeps a prefix of the new slot image: the in-flight
		// cells wholly inside it are new and valid, the one it cuts is
		// noise, the rest hold what they held before.
		landed := max(0, int(frac*512)/CellSize-durable)
		if len(recs) != durable+landed {
			t.Fatalf("frac %v: %d records survive, want %d durable + %d landed", frac, len(recs), durable, landed)
		}
		for i, r := range recs[:durable] {
			if r.Seq != uint64(i+1) || r.Op != OpReloc || r.OldLoc != 100+uint64(i) || r.NewLoc != 200+uint64(i) {
				t.Fatalf("frac %v: durable record %d reads %+v", frac, i, r)
			}
		}
		if j2.Seq() != uint64(durable+landed+1) {
			t.Fatalf("frac %v: resume at %d", frac, j2.Seq())
		}
		at := (durable + landed) * CellSize
		if err := j2.AppendDummy(); err != nil {
			t.Fatal(err)
		}
		now := mem.Snapshot()[512 : 2*512]
		if bytes.Equal(now[at:at+sealer.IVSize], torn[at:at+sealer.IVSize]) {
			t.Fatalf("frac %v: the re-append reused the IV the torn write left in its cell", frac)
		}
		if !bytes.Equal(now[:at], torn[:at]) {
			t.Fatalf("frac %v: the re-append disturbed the cells before its own", frac)
		}
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
		{Seq: 4, Op: OpAlloc, FileH: 99, Locs: []uint64{80}},
	}
	res, err := Resolve(recs, func(fileH uint64) (map[uint64]bool, error) {
		if fileH == 99 {
			return nil, ErrNoKey
		}
		return resolve(fileH)
	})
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
	if len(res.Unresolved) != 1 || res.Unresolved[0].FileH != 99 {
		t.Fatalf("unresolved %+v", res.Unresolved)
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
