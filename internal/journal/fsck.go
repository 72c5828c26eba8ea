package journal

import (
	"fmt"

	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// FsckReport is the journal half of a volume check: ring integrity
// plus the intents no completed save has covered. It is what turns
// "the volume mounted" into "the volume is clean" — a dirty ring
// means a crash interrupted the update stream and Recover must run.
type FsckReport struct {
	// Slots is the number of ring blocks, Capacity how many records
	// (cells) they hold.
	Slots, Capacity uint64
	// Valid is how many cells decoded as authentic records.
	Valid int
	// SeqLo and SeqHi bound the surviving sequence numbers (zero when
	// the ring is empty).
	SeqLo, SeqHi uint64
	// Missing counts the ring blocks inside [SeqLo, SeqHi] whose
	// opening record is gone: torn writes (a crash mid-append) or
	// damage. Every slot an append writes opens with a sealed record,
	// and the cells after it may be filler, which reads as noise; so
	// a block's opening cell is the one gap that means a lost cell.
	Missing int
	// LastCheckpoint is the newest OpCheckpoint's sequence number.
	LastCheckpoint uint64
	// Pending lists the intents (reloc/alloc/free) no save covers (see
	// Covered) — the "unreplayed intents" a clean shutdown never leaves
	// behind.
	Pending []Record
}

// Ok reports whether the ring shows a cleanly retired log: every
// intent covered by a save and no sequence gaps.
func (r *FsckReport) Ok() bool { return len(r.Pending) == 0 && r.Missing == 0 }

// String renders a one-line summary.
func (r *FsckReport) String() string {
	return fmt.Sprintf("journal: %d/%d cells valid in %d slots, seq [%d,%d], %d missing, %d pending intents",
		r.Valid, r.Capacity, r.Slots, r.SeqLo, r.SeqHi, r.Missing, len(r.Pending))
}

// Fsck verifies the journal region of vol under the journal key: cell
// integrity (every record's seal and tag), an opening record in every
// slot the surviving window spans, and which intents remain
// unreplayed. It needs only the journal key — no file keys — so it
// reports pending intents without being able to resolve them; the
// agents' Recover methods do that. Like every Open it converts a ring
// the one-record-per-slot format wrote.
func Fsck(vol *stegfs.Volume, key sealer.Key) (*FsckReport, error) {
	j, err := Open(vol, key)
	if err != nil {
		return nil, err
	}
	recs, err := j.Scan()
	if err != nil {
		return nil, err
	}
	rep := &FsckReport{Slots: j.Slots(), Capacity: j.Capacity(), Valid: len(recs)}
	if len(recs) == 0 {
		return rep, nil
	}
	rep.SeqLo = recs[0].Seq
	rep.SeqHi = recs[len(recs)-1].Seq
	i := 0
	for s := (rep.SeqLo+j.k-2)/j.k*j.k + 1; s <= rep.SeqHi; s += j.k {
		for i < len(recs) && recs[i].Seq < s {
			i++
		}
		if recs[i].Seq != s {
			rep.Missing++
		}
	}

	covered := Covered(recs)
	for _, rec := range recs {
		switch rec.Op {
		case OpCheckpoint:
			rep.LastCheckpoint = rec.Seq
		case OpReloc, OpAlloc, OpFree:
			if !covered(rec) {
				rep.Pending = append(rep.Pending, rec)
			}
		}
	}
	return rep, nil
}
