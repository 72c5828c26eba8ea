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
// (adjacent) region, in place, by class ‖ PRF(nonce), run through the
// reshuffle codec below. Level i+1 may hold reals, so the last-level
// cascade merges this way; a cascade into an empty level is cascade's.
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
func (s *Store) dump(i int) (err error) {
	if i+1 >= len(s.levels) {
		return fmt.Errorf("%w: cannot dump past level %d", ErrCacheFull, len(s.levels))
	}
	t0 := s.now()
	defer func() { s.shuffled(t0, err) }()
	s.stats.Dumps++

	combined := s.dumpSort(i)
	return s.merge(s.levels[i:i+2], combined, combined, s.levels[i].region.Len)
}

// dumpSort is the region dump(i) sorts in place: levels i+1 and i+2,
// which layout places side by side.
func (s *Store) dumpSort(i int) extsort.Region {
	li, lj := s.levels[i], s.levels[i+1]
	return extsort.Region{Start: li.region.Start, Len: li.region.Len + lj.region.Len}
}

// cascadeSort is the region the cascade into level m+1 (0 < m < k−1)
// sorts: the first 2^(m+1)·B slots of the hierarchy, that is levels
// 1..m and the first 2B slots of level m+1, as many as level m+1 has.
func (s *Store) cascadeSort(m int) extsort.Region {
	return extsort.Region{Start: s.levels[0].region.Start, Len: s.levels[m].region.Len}
}

// cascade moves levels 1..m (0 < m < k−1) into level m+1 at a period
// of the strict schedule with exactly m trailing zeros, where level
// m+1 holds no real block (DESIGN.md, "Cascades into an empty level"):
// one sort of cascadeSort(m), whose final pass writes level m+1 and
// whose winners are the shallowest copy of each id, then fresh dummies
// sealed into levels 1..m by the format loop of New. Every sorted slot
// lands in level m+1, so there is no low class. It counts as one dump.
func (s *Store) cascade(m int) (err error) {
	t0 := s.now()
	defer func() { s.shuffled(t0, err) }()
	s.stats.Dumps++

	to := s.levels[m]
	if n := len(to.index); n != 0 {
		return fmt.Errorf("oblivious: cascade into level %d, which holds %d reals (schedule bug)", m+1, n)
	}
	if err = s.merge(s.levels[:m+1], s.cascadeSort(m), to.region, 0); err != nil {
		return err
	}
	return s.format(&s.shuffleDev, s.levels[:m])
}

// merge sorts src into dst, the region of the last of lvs, through the
// reshuffle codec and empties the other levels' indices. The winners
// are the shallowest copy of each id in lvs, the first low dummies of
// src take the low class (and so the slots of dst before the last
// level), and the last level adopts the index the final pass builds.
func (s *Store) merge(lvs []*level, src, dst extsort.Region, low uint64) error {
	to := lvs[len(lvs)-1]
	s.winners.Reset()
	for j, lv := range lvs {
		for id, slot := range lv.index {
			if !held(lvs[:j], id) {
				s.winners.Set(slot - src.Start)
			}
		}
	}
	reals := int(s.winners.Count())
	if to == s.levels[len(s.levels)-1] && reals > to.capReal {
		return fmt.Errorf("%w: %d distinct blocks exceed capacity %d", ErrCacheFull, reals, to.capReal)
	}

	clear(s.spareIndex)
	s.realSlots.Reset()
	r := &s.shuffle
	*r = reshuffle{s: s, src: src.Start, low: low, to: to.region, tagSeed: s.tagRNG.Uint64()}
	if err := extsort.Sort(&s.shuffleDev, src, dst, s.scratch, r, &s.win); err != nil {
		return err
	}
	if r.dummies < low {
		return fmt.Errorf("oblivious: only %d dummies for a low class of %d (capacity invariant broken)", r.dummies, low)
	}
	if len(s.spareIndex) != reals {
		return fmt.Errorf("oblivious: merge placed %d reals, expected %d", len(s.spareIndex), reals)
	}

	for _, lv := range lvs[:len(lvs)-1] {
		clear(lv.index)
		lv.resetEpoch(nil)
	}
	// Swap rather than drop: the target level adopts the freshly built
	// index and its old map (cleared at the top of the next merge)
	// becomes the spare.
	to.index, s.spareIndex = s.spareIndex, to.index
	to.resetEpoch(s.realSlots)
	return nil
}

// held reports whether any of lvs indexes id.
func held(lvs []*level, id BlockID) bool {
	for _, lv := range lvs {
		if _, ok := lv.index[id]; ok {
			return true
		}
	}
	return false
}

// reshuffle is the extsort.Codec of one merge. It works on slot
// payloads: Open decrypts and verifies every slot the sort reads, Seal
// tags and encrypts every slot it writes in lanes under fresh IVs. The
// state of the merge it serves — winners, the index and real-slot set
// being rebuilt — lives in the Store's reusable scratch.
type reshuffle struct {
	s       *Store
	src     uint64         // first slot of the sorted region, winners' origin
	low     uint64         // dummies that take the low class
	to      extsort.Region // the level filled
	tagSeed uint64
	dummies uint64 // dummies seen by run formation so far
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
			h.real = h.real && s.winners.Get(pos+uint64(i)-r.src)
			h.nonce = s.rng.Uint64()
			h.lowClass = false
			if !h.real {
				h.lowClass = r.dummies < r.low
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
// index of the level filled from plaintext.
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

// shuffleDev counts shuffle I/O. It forwards every batch to the inner
// device whole, so the merge sort's batched passes stay batched all the
// way down.
type shuffleDev struct {
	blockdev.Device
	s *Store
}

// ReadBlocks implements blockdev.Device.
func (d *shuffleDev) ReadBlocks(start uint64, bufs [][]byte) error {
	if err := d.Device.ReadBlocks(start, bufs); err != nil {
		return err
	}
	d.s.stats.ShuffleReads += uint64(len(bufs))
	return nil
}

// WriteBlocks implements blockdev.Device.
func (d *shuffleDev) WriteBlocks(start uint64, data [][]byte) error {
	if err := d.Device.WriteBlocks(start, data); err != nil {
		return err
	}
	d.s.stats.ShuffleWrites += uint64(len(data))
	return nil
}

// ReadBlocksAt implements blockdev.Device.
func (d *shuffleDev) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	if err := d.Device.ReadBlocksAt(idx, bufs); err != nil {
		return err
	}
	d.s.stats.ShuffleReads += uint64(len(idx))
	return nil
}

// WriteBlocksAt implements blockdev.Device.
func (d *shuffleDev) WriteBlocksAt(idx []uint64, data [][]byte) error {
	if err := d.Device.WriteBlocksAt(idx, data); err != nil {
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
