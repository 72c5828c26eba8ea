package journal

import (
	"fmt"

	"steghide/internal/sealer"
)

// The parent format: one record per slot, sealed as IV ‖ CBC(area) at
// the head of the block, the rest of the block static cover. The area
// (min(blockSize−IVSize, 256) bytes, plaintext):
//
//	off  0  magic  [4]byte "SJR1"
//	off  4  op     uint8
//	off  5  nLocs  uint8
//	off  6  pad    uint16
//	off  8  seq    uint64
//	off 16  fileH  uint64
//	off 24  oldLoc uint64
//	off 32  newLoc uint64
//	off 40  locs   [nLocs]uint64
//	tail 8  keyed checksum over area[:40+8·nLocs]
//
// Record seq lived in slot (seq−1) mod slots. Seal key and tag are the
// ones cells use. Nothing here writes this format; it is decoded once,
// as the input of upgrade.
const (
	parentMagic   = "SJR1"
	parentMaxArea = 256
)

// decodeParent parses one raw slot as a parent-format record, reporting
// false when it is none. seal is the parent sealer, over IV + area.
func (j *Journal) decodeParent(raw []byte, seal *sealer.Sealer, area []byte) (rec Record, ok bool) {
	if err := seal.Open(area, raw[:seal.BlockSize()]); err != nil || string(area[:4]) != parentMagic {
		return rec, false
	}
	op, n := Op(area[4]), int(area[5])
	if op == 0 || op >= opMax || n > (len(area)-recFixed-recTagSize)/8 {
		return rec, false
	}
	if be.Uint64(area[len(area)-recTagSize:]) != j.tagger.tag(area[:recFixed+8*n]) {
		return rec, false
	}
	rec = Record{
		Seq: be.Uint64(area[8:]), Op: op, FileH: be.Uint64(area[16:]),
		OldLoc: be.Uint64(area[24:]), NewLoc: be.Uint64(area[32:]),
	}
	for i := 0; i < n; i++ {
		rec.Locs = append(rec.Locs, be.Uint64(area[recFixed+8*i:]))
	}
	return rec, true
}

// upgrade converts a ring the parent format wrote, at Open. A slot is
// recognised by trial decode under the key — the two magics differ, so
// neither format reads as the other — and rewritten in place: parent
// record s becomes the records (s−1)·k+1 … s·k, its own cells first
// (an address list takes ⌈n/2⌉ of them) and fillers up to the slot
// end. That numbering keeps the order of the old stream, puts every
// record in the cell its sequence number names, and lands each old
// record in the slot it already occupied — so one conversion is one
// block write, atomic where block writes are: a power cut mid-upgrade
// leaves every slot whole in one format or the other, and the next Open
// converts the rest. The window of history the ring reveals is the old
// one; it grows only as new appends replace the fillers.
//
// The rewrite goes through AppendBatch, the one append path. A parent
// record with more addresses than a slot of cells holds (block sizes of
// 512 bytes and below, lists the parent format itself had to fit in 256
// bytes) cannot be converted in place; Open refuses the ring rather
// than drop the intent.
func (j *Journal) upgrade(sealKey sealer.Key) error {
	areaSize := min(j.vol.BlockSize()-sealer.IVSize, parentMaxArea)
	seal, err := sealer.New(sealKey, sealer.IVSize+areaSize)
	if err != nil {
		return err
	}
	area := make([]byte, areaSize)
	resume := j.seq
	for s := range j.images {
		old, ok := j.decodeParent(j.images[s], seal, area)
		if !ok || (old.Seq-1)%j.slots != uint64(s) {
			continue
		}
		cells := max(1, listCells(old.Locs))
		if uint64(cells) > j.k {
			return fmt.Errorf("journal: cannot convert the old-format record %d (%d addresses) into a slot of %d cells: %w",
				old.Seq, len(old.Locs), j.k, ErrRecordBig)
		}
		j.seq = (old.Seq-1)*j.k + 1
		err := j.AppendBatch(int(j.k), func(i int, r *Record) {
			switch {
			case i >= cells:
				r.Op = OpDummy
			case len(old.Locs) > 0:
				*r = Record{Op: old.Op, FileH: old.FileH, Locs: listPart(old.Locs, i)}
			default:
				*r = old
			}
		})
		if err != nil {
			return err
		}
		resume = max(resume, j.seq)
	}
	j.seq = resume
	return nil
}
