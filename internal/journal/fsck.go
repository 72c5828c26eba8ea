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
	// Missing counts sequence numbers inside [SeqLo, SeqHi] with no
	// surviving record: cells lost to torn writes (a crash mid-append)
	// or reused by the ring's wrap.
	Missing int
	// LastCheckpoint is the newest OpCheckpoint's sequence number.
	LastCheckpoint uint64
	// Pending lists intents (reloc/alloc/free) not covered by a later
	// save record of the same file — the "unreplayed intents" a clean
	// shutdown never leaves behind.
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
// integrity (every record's seal and tag), sequence continuity, and
// which intents remain unreplayed. It needs only the journal key —
// no file keys — so it reports pending intents without being able to
// resolve them; the agents' Recover methods do that. Like every Open
// it converts a ring the one-record-per-slot format wrote.
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
	rep.Missing = int(rep.SeqHi-rep.SeqLo+1) - len(recs)

	// An intent is pending until a later save of its file commits it.
	lastSave := map[uint64]uint64{}
	for _, rec := range recs {
		switch rec.Op {
		case OpSave:
			lastSave[rec.FileH] = rec.Seq
		case OpCheckpoint:
			rep.LastCheckpoint = rec.Seq
		}
	}
	for _, rec := range recs {
		switch rec.Op {
		case OpReloc, OpAlloc, OpFree:
			if lastSave[rec.FileH] < rec.Seq {
				rep.Pending = append(rep.Pending, rec)
			}
		}
	}
	return rep, nil
}
