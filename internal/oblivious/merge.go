package oblivious

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"steghide/internal/blockdev"
	"steghide/internal/extsort"
)

// dump merges level i (0-based) into level i+1 with O(B) memory and
// mostly sequential I/O, over the two levels' combined (adjacent)
// region:
//
//	pass A  one sequential rewrite of the combined region: entries
//	        whose slot is not a winner (per the in-memory indices:
//	        level i supersedes level i+1; consumed entries have no
//	        index at all) become dummies, everything gets a fresh
//	        nonce, and exactly |level i| dummies are tagged "low
//	        class";
//	pass B  external sort by class ‖ PRF(nonce), re-encrypting on
//	        every write: the low-class dummies land exactly in level
//	        i's region (leaving it empty) and the real entries are
//	        uniformly shuffled among level i+1's slots. The sort's
//	        final placement pass rebuilds level i+1's index via the
//	        OnOutput hook, so no separate scan is needed.
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
	dev := &shuffleDev{Device: s.dev, s: s}

	// Winner slots from the in-memory indices: every level i entry
	// survives; a level i+1 entry survives unless level i holds the
	// same id (the higher copy is always fresher).
	clear(s.winnersBuf)
	winners := s.winnersBuf
	reals := 0
	for _, slot := range li.index {
		winners[slot] = true
		reals++
	}
	for id, slot := range lj.index {
		if _, shadowed := li.index[id]; !shadowed {
			winners[slot] = true
			reals++
		}
	}
	if i+1 == len(s.levels)-1 && reals > lj.capReal {
		return fmt.Errorf("%w: %d distinct blocks exceed capacity %d", ErrCacheFull, reals, lj.capReal)
	}

	// Single shuffle sort by class ‖ PRF(nonce). Dedup, fresh nonces
	// and class assignment happen as run formation first reads each
	// slot (OnInput); the index of level i+1 is rebuilt as the final
	// pass places each block (OnOutput).
	lowCount := li.region.Len
	var dummies uint64
	onInput := func(pos uint64, raw []byte) error {
		e := &s.mergeEnt
		if err := s.codec.decodeInto(e, raw); err != nil {
			return err
		}
		if !winners[pos] {
			e.real = false
		}
		e.nonce = s.rng.Uint64()
		if e.real {
			e.lowClass = false
		} else {
			e.lowClass = dummies < lowCount
			dummies++
		}
		s.rng.Read(s.iv)
		return s.codec.encode(raw, e, s.iv, s.rng.Fill)
	}

	tagSeed := s.tagRNG.Uint64()
	tagKey := func(raw []byte) uint64 {
		// peek, not decode: the sort evaluates this once per block per
		// pass (cached in the run-formation key slice), and it needs
		// only the header — no value copy, no allocation.
		m, err := s.codec.peek(raw)
		if err != nil {
			return ^uint64(0)
		}
		tag := nonceTag(tagSeed, m.nonce) >> 1
		if !m.lowClass {
			tag |= uint64(1) << 63
		}
		return tag
	}
	clear(s.spareIndex)
	newIndex := s.spareIndex
	clear(s.realSlots)
	realSlots := s.realSlots
	var rebuildErr error
	onOutput := func(pos uint64, raw []byte) error {
		e, err := s.codec.peek(raw)
		if err != nil {
			return err
		}
		if !e.real {
			return nil
		}
		if pos < lj.region.Start {
			rebuildErr = fmt.Errorf("oblivious: real entry left in emptied level %d", i+1)
			return rebuildErr
		}
		if prev, dup := newIndex[e.id]; dup {
			rebuildErr = fmt.Errorf("oblivious: duplicate id %v at slots %d and %d after merge", e.id, prev, pos)
			return rebuildErr
		}
		newIndex[e.id] = pos
		realSlots[pos] = true
		return nil
	}
	if err := extsort.Sort(dev, combined, s.scratch, s.bufCap, tagKey,
		extsort.Options{Transform: s.reseal, OnInput: onInput, OnOutput: onOutput, Window: s.sortWin}); err != nil {
		return err
	}
	if rebuildErr != nil {
		return rebuildErr
	}
	if dummies < lowCount {
		return fmt.Errorf("oblivious: only %d dummies for a low class of %d (capacity invariant broken)", dummies, lowCount)
	}
	if len(newIndex) != reals {
		return fmt.Errorf("oblivious: merge placed %d reals, expected %d", len(newIndex), reals)
	}

	clear(li.index)
	li.realCount = 0
	li.resetEpoch(s, nil)
	// Swap rather than drop: the target level adopts the freshly built
	// index and its old map (cleared at the top of the next dump)
	// becomes the spare.
	lj.index, s.spareIndex = newIndex, lj.index
	lj.realCount = reals
	lj.resetEpoch(s, realSlots)
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
