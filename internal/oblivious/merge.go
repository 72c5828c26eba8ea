package oblivious

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"steghide/internal/blockdev"
	"steghide/internal/extsort"
)

// dump merges level i (0-based) into level i+1 with O(B) memory and
// mostly sequential I/O: one external sort of the two levels' combined
// (adjacent) region by class ‖ PRF(nonce), run through the reshuffle
// codec below.
//
//	run formation  as each slot is first opened, an entry whose slot
//	               is not a winner (per the in-memory indices: level i
//	               supersedes level i+1; consumed entries have no
//	               index at all) becomes a dummy, everything gets a
//	               fresh nonce, and exactly |level i| dummies are
//	               tagged "low class";
//	merge passes   carry each slot as plaintext from its one read to
//	               its one write; the low-class dummies land exactly in
//	               level i's region (leaving it empty) and the real
//	               entries are uniformly shuffled among level i+1's
//	               slots;
//	final pass     hands its records to the index rebuild of level i+1
//	               as it seals them, so no separate scan is needed.
//
// With P merge passes a slot is opened (and its tag checked) 1+P
// times and tagged and sealed in lanes under a fresh IV 1+P times: the
// tag binds the IV and every seal draws a new one, so 2+2P tags. Only
// their masks depend on the IV. A merge pass carries each slot's hash
// from its open to its seal, so the payload is hashed 2+P times: at
// each open and once more when run formation rewrites its header.
func (s *Store) dump(i int) error {
	if i+1 >= len(s.levels) {
		return fmt.Errorf("%w: cannot dump past level %d", ErrCacheFull, len(s.levels))
	}
	t0 := s.now()
	defer func() { s.stats.SortTime += s.now() - t0 }()
	s.stats.Dumps++

	li, lj := s.levels[i], s.levels[i+1]
	if lj.region.Start != li.region.End() {
		return fmt.Errorf("oblivious: levels %d/%d not adjacent", i+1, i+2)
	}
	combined := extsort.Region{Start: li.region.Start, Len: li.region.Len + lj.region.Len}

	// Winner slots from the in-memory indices: every level i entry
	// survives; a level i+1 entry survives unless level i holds the
	// same id (the higher copy is always fresher).
	s.winners.Reset()
	for _, slot := range li.index {
		s.winners.Set(slot - combined.Start)
	}
	for id, slot := range lj.index {
		if _, shadowed := li.index[id]; !shadowed {
			s.winners.Set(slot - combined.Start)
		}
	}
	reals := int(s.winners.Count())
	if i+1 == len(s.levels)-1 && reals > lj.capReal {
		return fmt.Errorf("%w: %d distinct blocks exceed capacity %d", ErrCacheFull, reals, lj.capReal)
	}

	clear(s.spareIndex)
	s.realSlots.Reset()
	r := &s.shuffle
	*r = reshuffle{s: s, from: li.region, to: lj.region, tagSeed: s.tagRNG.Uint64()}
	if err := extsort.Sort(&s.shuffleDev, combined, s.scratch, r, &s.win); err != nil {
		return err
	}
	if r.dummies < li.region.Len {
		return fmt.Errorf("oblivious: only %d dummies for a low class of %d (capacity invariant broken)", r.dummies, li.region.Len)
	}
	if len(s.spareIndex) != reals {
		return fmt.Errorf("oblivious: merge placed %d reals, expected %d", len(s.spareIndex), reals)
	}

	clear(li.index)
	li.realCount = 0
	li.resetEpoch(nil)
	// Swap rather than drop: the target level adopts the freshly built
	// index and its old map (cleared at the top of the next dump)
	// becomes the spare.
	lj.index, s.spareIndex = s.spareIndex, lj.index
	lj.realCount = reals
	lj.resetEpoch(s.realSlots)
	return nil
}

// reshuffle is the extsort.Codec of one dump. It works on slot
// payloads: Open decrypts and verifies every slot the sort reads, Seal
// tags and encrypts every slot it writes in lanes under fresh IVs. The
// state of the dump it serves — winners, the index and real-slot set being
// rebuilt — lives in the Store's reusable scratch.
type reshuffle struct {
	s        *Store
	from, to extsort.Region // level i, emptied, and level i+1, filled
	tagSeed  uint64
	dummies  uint64 // dummies seen by run formation so far
}

// Open implements extsort.Codec. Run formation folds dedup, the fresh
// nonce and class assignment into the open, drawing per slot a nonce
// and then, for a dummy, its filler.
func (r *reshuffle) Open(pos uint64, input bool, raws, recs [][]byte, keys []uint64) error {
	s := r.s
	for i, raw := range raws {
		p := recs[i]
		if err := s.codec.open(p, raw); err != nil {
			return err
		}
		h := header(p)
		if input {
			h.real = h.real && s.winners.Get(pos+uint64(i)-r.from.Start)
			h.nonce = s.rng.Uint64()
			h.lowClass = false
			if !h.real {
				h.lowClass = r.dummies < r.from.Len
				r.dummies++
				s.rng.Fill(p[entryMetaSize:])
			}
			s.codec.putHeader(p, h)
		}
		keys[i] = nonceTag(r.tagSeed, h.nonce) >> 1
		if !h.lowClass {
			keys[i] |= 1 << 63
		}
	}
	return nil
}

// Seal implements extsort.Codec. The final pass's records rebuild the
// index of level i+1 from plaintext.
func (r *reshuffle) Seal(pos uint64, final bool, recs, raws [][]byte) error {
	s := r.s
	if err := s.sealSlots(raws, recs); err != nil {
		return err
	}
	if !final {
		return nil
	}
	for i, p := range recs {
		h := header(p)
		if !h.real {
			continue
		}
		slot := pos + uint64(i)
		if slot < r.to.Start {
			return fmt.Errorf("oblivious: real entry left in emptied level at slot %d", slot)
		}
		if prev, dup := s.spareIndex[h.id]; dup {
			return fmt.Errorf("oblivious: duplicate id %v at slots %d and %d after merge", h.id, prev, slot)
		}
		s.spareIndex[h.id] = slot
		s.realSlots.Set(slot - r.to.Start)
	}
	return nil
}

// shuffleDev counts shuffle I/O. It forwards batches to the inner
// device's fast path (via the package helpers) so the merge sort's
// batched passes stay batched all the way down.
type shuffleDev struct {
	blockdev.Device
	s *Store
}

func (d *shuffleDev) ReadBlock(i uint64, buf []byte) error {
	if err := d.Device.ReadBlock(i, buf); err != nil {
		return err
	}
	d.s.stats.ShuffleReads++
	return nil
}

func (d *shuffleDev) WriteBlock(i uint64, data []byte) error {
	if err := d.Device.WriteBlock(i, data); err != nil {
		return err
	}
	d.s.stats.ShuffleWrites++
	return nil
}

// ReadBlocks implements blockdev.BatchDevice.
func (d *shuffleDev) ReadBlocks(start uint64, bufs [][]byte) error {
	if err := blockdev.ReadBlocks(d.Device, start, bufs); err != nil {
		return err
	}
	d.s.stats.ShuffleReads += uint64(len(bufs))
	return nil
}

// WriteBlocks implements blockdev.BatchDevice.
func (d *shuffleDev) WriteBlocks(start uint64, data [][]byte) error {
	if err := blockdev.WriteBlocks(d.Device, start, data); err != nil {
		return err
	}
	d.s.stats.ShuffleWrites += uint64(len(data))
	return nil
}

// ReadBlocksAt implements blockdev.BatchDevice.
func (d *shuffleDev) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	if err := blockdev.ReadBlocksAt(d.Device, idx, bufs); err != nil {
		return err
	}
	d.s.stats.ShuffleReads += uint64(len(idx))
	return nil
}

// WriteBlocksAt implements blockdev.BatchDevice.
func (d *shuffleDev) WriteBlocksAt(idx []uint64, data [][]byte) error {
	if err := blockdev.WriteBlocksAt(d.Device, idx, data); err != nil {
		return err
	}
	d.s.stats.ShuffleWrites += uint64(len(idx))
	return nil
}

// nonceTag is the shuffle-placement PRF.
func nonceTag(seed, nonce uint64) uint64 {
	h := fnv.New64a()
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], seed)
	binary.BigEndian.PutUint64(b[8:], nonce)
	h.Write(b[:])
	return h.Sum64()
}
