package oblivious

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"steghide/internal/bitmap"
	"steghide/internal/blockdev"
	"steghide/internal/extsort"
	"steghide/internal/prng"
	"steghide/internal/sealer"
)

// Config describes an oblivious store.
type Config struct {
	// Dev is the store's partition: levels followed by sort scratch.
	// Its block size fixes the slot size; use Footprint to size it.
	Dev blockdev.Device
	// Key seals every slot (a session key of the agent).
	Key sealer.Key
	// BufferBlocks is B: the agent's in-memory buffer capacity. Level
	// i holds 2^i·B slots.
	BufferBlocks int
	// Levels is k: the number of levels. The last level's 2^k·B slots
	// cache up to 2^(k-1)·B distinct blocks.
	Levels int
	// RNG drives every random choice.
	RNG *prng.PRNG
	// Clock, if non-nil, is sampled around shuffles and retrievals to
	// split access time into sorting vs retrieving overhead (Fig. 12b).
	// Experiments pass the simulated disk's virtual clock.
	Clock func() time.Duration
	// RelaxFactor implements the optimization sketched in §5.2/§7:
	// "relax the security requirement and reduce … the frequency that
	// the blocks are re-sorted". A factor of F ≥ 2 stretches the
	// shuffle schedule by F, cutting the amortized sorting cost ~F×;
	// the price is that a level's untouched-dummy pool can run dry
	// between shuffles, after which dummy probes re-touch random
	// slots — a bounded, measurable leak counted in Stats.ReTouches.
	// 0 or 1 means the strict schedule (no leak).
	RelaxFactor int
}

// Footprint returns the number of device blocks a store with the
// given geometry occupies: all level regions plus the sort scratch
// (sized for the largest combined region, 3·2^(k-1)·B).
func Footprint(bufferBlocks, levels int) uint64 {
	b := uint64(bufferBlocks)
	var total uint64
	for i := 1; i <= levels; i++ {
		total += (uint64(1) << uint(i)) * b
	}
	return total + 3*(uint64(1)<<uint(levels-1))*b
}

// Stats aggregates the store's observable work.
type Stats struct {
	Gets          uint64 // Get calls
	BufferHits    uint64 // served from the in-memory buffer (no I/O)
	Hits          uint64 // found in some level
	Misses        uint64 // not cached (caller fetches from StegFS)
	DummyReads    uint64 // DummyRead calls
	LevelReads    uint64 // slot reads during retrieval
	Puts          uint64
	Flushes       uint64 // buffer → level 1
	Dumps         uint64 // level i → level i+1 merges
	ShuffleReads  uint64 // slot reads during shuffles/merges
	ShuffleWrites uint64 // slot writes during shuffles/merges
	// ReTouches counts dummy probes that had to re-touch an
	// already-touched slot because the relaxed schedule drained a
	// level's pool — the measurable security cost of RelaxFactor.
	ReTouches    uint64
	SortTime     time.Duration
	RetrieveTime time.Duration
}

// level is one tier of the hierarchy.
type level struct {
	region    extsort.Region
	capReal   int                // 2^(i-1)·B — at most half the slots are real
	realCount int                //
	index     map[BlockID]uint64 // id → absolute slot, rebuilt per epoch
	// unreadDummies are the dummy slots not yet touched this epoch;
	// dummy probes draw from here so they can never collide with a
	// future real probe (real slots are each touched at most once by
	// construction).
	unreadDummies []uint64
	epoch         uint64
}

// Store is the oblivious storage. It is not safe for concurrent use;
// the agent serializes access (as it does all storage I/O).
type Store struct {
	dev    blockdev.Device
	codec  *codec
	rng    *prng.PRNG
	clock  func() time.Duration
	bufCap int

	buffer  map[BlockID]*entry
	levels  []*level // levels[0] is level 1
	scratch extsort.Region
	relax   int // schedule stretch factor (1 = strict)

	version  uint64 // global write counter
	accesses uint64 // drives the deterministic shuffle schedule
	stats    Stats

	// epochSeeds feed the shuffle-tag PRF; refreshed per shuffle.
	tagRNG *prng.PRNG

	// Reusable scratch. The store is not safe for concurrent use (the
	// agent serializes access), so one set of buffers serves every hot
	// path instead of a make per call. win is the store's block
	// memory: B sealed buffers and B payload twins, the window of every
	// dump's sort and, between sorts, the batch that format and flush
	// scan and seal through.
	win       extsort.Window
	probeIdx  []uint64        // one slot index per level (Get/DummyRead)
	probeBufs [][]byte        // one block per level (Get/DummyRead)
	drawIV    func(iv []byte) // s.rng.Read, built once for sealSlots

	// Flush scratch, all sized once for level 1 (the only level flush
	// rewrites): survivor list, permutation, slot→entry placement and a
	// reusable dummy entry.
	entriesBuf []*entry
	permBuf    []int
	placeBuf   []*entry
	dummyEnt   entry

	// realSlots marks, by offset into the level a flush or dump has
	// just rewritten, the slots that hold real entries; resetEpoch
	// builds the level's unread-dummy pool from it.
	realSlots *bitmap.Bitmap

	// Merge scratch: the winner set (by offset into the combined
	// region), a spare index map swapped with the target level's (the
	// old map is cleared and becomes next dump's spare), and the codec
	// and counting device handed to the sort.
	winners    *bitmap.Bitmap
	spareIndex map[BlockID]uint64
	shuffle    reshuffle
	shuffleDev shuffleDev

	// freeEntries recycles entry structs (and their value backings)
	// between the buffer and the flush path, so steady-state Puts and
	// promotions allocate nothing.
	freeEntries []*entry
}

// newEntry pops a recycled entry (value backing retained, fields
// zeroed) or allocates one.
func (s *Store) newEntry() *entry {
	if n := len(s.freeEntries); n > 0 {
		e := s.freeEntries[n-1]
		s.freeEntries = s.freeEntries[:n-1]
		v := e.value
		*e = entry{value: v[:0]}
		return e
	}
	return new(entry)
}

// freeEntry returns an entry to the freelist. Callers must not retain
// the pointer (GetInto copies values out to its caller, never hands
// over the entry itself, so the only holders are the buffer map and
// flush's transient survivor list).
func (s *Store) freeEntry(e *entry) {
	if e != nil {
		s.freeEntries = append(s.freeEntries, e)
	}
}

// New builds and formats an oblivious store: every level slot is
// initialized as a sealed dummy so that from the first access on, all
// slots are valid ciphertext.
func New(cfg Config) (*Store, error) {
	if cfg.BufferBlocks < 2 {
		return nil, fmt.Errorf("oblivious: buffer of %d blocks", cfg.BufferBlocks)
	}
	if cfg.Levels < 1 {
		return nil, fmt.Errorf("oblivious: %d levels", cfg.Levels)
	}
	need := Footprint(cfg.BufferBlocks, cfg.Levels)
	if cfg.Dev.NumBlocks() < need {
		return nil, fmt.Errorf("oblivious: device has %d blocks, geometry needs %d", cfg.Dev.NumBlocks(), need)
	}
	cdc, err := newCodec(cfg.Key, cfg.Dev.BlockSize())
	if err != nil {
		return nil, err
	}
	relax := cfg.RelaxFactor
	if relax < 1 {
		relax = 1
	}
	s := &Store{
		dev:    cfg.Dev,
		codec:  cdc,
		rng:    cfg.RNG.Child("obli"),
		clock:  cfg.Clock,
		bufCap: cfg.BufferBlocks,
		relax:  relax,
		buffer: make(map[BlockID]*entry, cfg.BufferBlocks),
	}
	s.tagRNG = s.rng.Child("tags")
	rng := s.rng
	s.drawIV = func(iv []byte) { rng.Read(iv) }
	start := uint64(0)
	b := uint64(cfg.BufferBlocks)
	for i := 1; i <= cfg.Levels; i++ {
		slots := (uint64(1) << uint(i)) * b
		lv := &level{
			region:  extsort.Region{Start: start, Len: slots},
			capReal: int(slots / 2),
			index:   map[BlockID]uint64{},
		}
		s.levels = append(s.levels, lv)
		start += slots
	}
	s.scratch = extsort.Region{Start: start, Len: 3 * (uint64(1) << uint(cfg.Levels-1)) * b}
	s.win = extsort.Window{
		Raws: blockdev.AllocBlocks(cfg.BufferBlocks, s.dev.BlockSize()),
		Recs: blockdev.AllocBlocks(cfg.BufferBlocks, cdc.payload),
	}
	s.probeIdx = make([]uint64, cfg.Levels)
	s.probeBufs = blockdev.AllocBlocks(cfg.Levels, s.dev.BlockSize())
	l1Slots := int(s.levels[0].region.Len)
	s.entriesBuf = make([]*entry, 0, l1Slots)
	s.permBuf = make([]int, l1Slots)
	s.placeBuf = make([]*entry, l1Slots)
	// The largest level and the largest combined region (which the
	// scratch partition is sized for) bound every set a dump builds.
	s.realSlots = bitmap.New(s.levels[cfg.Levels-1].region.Len)
	s.winners = bitmap.New(s.scratch.Len)
	s.spareIndex = make(map[BlockID]uint64)
	s.shuffleDev = shuffleDev{Device: s.dev, s: s}

	// Format: seal a dummy into every slot, written out in batched
	// sequential passes of B blocks.
	for _, lv := range s.levels {
		for slot := lv.region.Start; slot < lv.region.End(); {
			n := min(uint64(len(s.win.Raws)), lv.region.End()-slot)
			raws, recs := s.win.Raws[:n], s.win.Recs[:n]
			for _, p := range recs {
				s.dummyEnt = entry{nonce: s.rng.Uint64()}
				if err := s.codec.put(p, &s.dummyEnt, s.rng.Fill); err != nil {
					return nil, err
				}
			}
			if err := s.sealSlots(raws, recs); err != nil {
				return nil, err
			}
			if err := s.dev.WriteBlocks(slot, raws); err != nil {
				return nil, err
			}
			slot += n
		}
		lv.resetEpoch(nil)
	}
	return s, nil
}

// sealSlots tags and seals payloads[i] into raws[i] for a whole batch
// under IVs drawn fresh from the store's RNG in index order. Every slot
// the store writes passes through here.
func (s *Store) sealSlots(raws, payloads [][]byte) error {
	return s.codec.sealMany(raws, payloads, s.drawIV)
}

// ValueSize returns the exact size of cached values.
func (s *Store) ValueSize() int { return s.codec.valueLen }

// BufferCap returns B, the buffer capacity in blocks.
func (s *Store) BufferCap() int { return s.bufCap }

// NumLevels returns k.
func (s *Store) NumLevels() int { return len(s.levels) }

// Capacity returns the number of distinct blocks the store can hold.
func (s *Store) Capacity() int { return s.levels[len(s.levels)-1].capReal }

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats { return s.stats }

// ResetStats zeroes the counters.
func (s *Store) ResetStats() { s.stats = Stats{} }

// LevelEpoch returns the shuffle epoch of level i (1-based); test hook
// for the never-touch-twice invariant.
func (s *Store) LevelEpoch(i int) uint64 { return s.levels[i-1].epoch }

// resetEpoch rebuilds the unread-dummy pool after a shuffle. real
// marks, by offset into the level, which slots hold real entries
// (nil = none).
func (lv *level) resetEpoch(real *bitmap.Bitmap) {
	lv.unreadDummies = lv.unreadDummies[:0]
	for off := uint64(0); off < lv.region.Len; off++ {
		if real == nil || !real.Get(off) {
			lv.unreadDummies = append(lv.unreadDummies, lv.region.Start+off)
		}
	}
	lv.epoch++
}

// drawDummy consumes a uniformly random untouched dummy slot. Under
// a relaxed schedule an exhausted pool falls back to re-touching a
// uniformly random slot — the bounded leak RelaxFactor buys its
// speedup with.
func (lv *level) drawDummy(s *Store) (uint64, error) {
	n := len(lv.unreadDummies)
	if n == 0 {
		if s.relax > 1 {
			s.stats.ReTouches++
			return lv.region.Start + s.rng.Uint64n(lv.region.Len), nil
		}
		return 0, fmt.Errorf("oblivious: level %v exhausted its dummy slots (shuffle cadence bug)", lv.region)
	}
	i := s.rng.Intn(n)
	slot := lv.unreadDummies[i]
	lv.unreadDummies[i] = lv.unreadDummies[n-1]
	lv.unreadDummies = lv.unreadDummies[:n-1]
	return slot, nil
}

func (s *Store) now() time.Duration {
	if s.clock == nil {
		return 0
	}
	return s.clock()
}

// readSlots performs the observable probe reads of one access as a
// single scattered batch — one slot per level, one device call.
func (s *Store) readSlots(idx []uint64, bufs [][]byte) error {
	if err := s.dev.ReadBlocksAt(idx, bufs); err != nil {
		return err
	}
	s.stats.LevelReads += uint64(len(idx))
	return nil
}

// GetInto looks the block up and, when it is cached, copies its value
// into dst — ValueSize bytes, or a prefix if dst is shorter — so a hit
// allocates nothing. Buffer hits cost no I/O and are invisible to the
// attacker. Otherwise exactly one slot per level is read — the real
// slot at the first level holding the block, a random untouched dummy
// everywhere else — and, if found, the block is promoted into the
// buffer (possibly triggering a flush). A miss still probes every
// level (the caller then fetches from the StegFS partition via the
// read_stegfs algorithm and Puts the block).
func (s *Store) GetInto(id BlockID, dst []byte) (bool, error) {
	s.stats.Gets++
	if e, ok := s.buffer[id]; ok {
		s.stats.BufferHits++
		copy(dst, e.value)
		return true, nil
	}
	t0 := s.now()
	sort0 := s.stats.SortTime

	// Pick the probe slot of every level up front — the slot choices
	// never depend on the reads — then fetch them in one batch.
	realLevel := -1
	for li, lv := range s.levels {
		if slot, here := lv.index[id]; here && realLevel < 0 {
			realLevel = li
			s.probeIdx[li] = slot
			continue
		}
		slot, err := lv.drawDummy(s)
		if err != nil {
			return false, err
		}
		s.probeIdx[li] = slot
	}
	if err := s.readSlots(s.probeIdx, s.probeBufs); err != nil {
		return false, err
	}

	if realLevel >= 0 {
		lv := s.levels[realLevel]
		e := s.newEntry()
		if err := s.codec.decodeInto(e, s.probeBufs[realLevel]); err != nil {
			s.freeEntry(e)
			return false, err
		}
		if !e.real || e.id != id {
			s.freeEntry(e)
			return false, fmt.Errorf("%w: index pointed at wrong entry", ErrCorruptSlot)
		}
		// Copy out before the entry joins the buffer: a flush may
		// recycle it.
		copy(dst, e.value)
		// Consumed: the entry promotes to the buffer. The slot keeps
		// its (now stale) ciphertext until the next merge drops it,
		// but it no longer counts toward occupancy.
		delete(lv.index, id)
		if lv.realCount > 0 {
			lv.realCount--
		}
		s.stats.Hits++
		if err := s.bufferInsert(e); err != nil {
			return false, err
		}
	} else {
		s.stats.Misses++
	}
	if err := s.afterAccess(); err != nil {
		return false, err
	}
	s.stats.RetrieveTime += (s.now() - t0) - (s.stats.SortTime - sort0)
	return realLevel >= 0, nil
}

// Get is GetInto returning the value in a fresh buffer.
func (s *Store) Get(id BlockID) ([]byte, bool, error) {
	v := make([]byte, s.codec.valueLen)
	if ok, err := s.GetInto(id, v); err != nil || !ok {
		return nil, false, err
	}
	return v, true, nil
}

// DummyRead performs the idle-time equivalent of a Get: one random
// untouched dummy slot per level, nothing buffered. To the attacker it
// is indistinguishable from a real read.
func (s *Store) DummyRead() error {
	s.stats.DummyReads++
	t0 := s.now()
	sort0 := s.stats.SortTime
	for li, lv := range s.levels {
		slot, err := lv.drawDummy(s)
		if err != nil {
			return err
		}
		s.probeIdx[li] = slot
	}
	if err := s.readSlots(s.probeIdx, s.probeBufs); err != nil {
		return err
	}
	if err := s.afterAccess(); err != nil {
		return err
	}
	s.stats.RetrieveTime += (s.now() - t0) - (s.stats.SortTime - sort0)
	return nil
}

// Put inserts or updates a cached block (write path, §5.1.2: writes
// within the oblivious storage are hidden the same way as reads; the
// caller repeats the write on the StegFS partition for persistence).
func (s *Store) Put(id BlockID, value []byte) error {
	if len(value) != s.codec.valueLen {
		return fmt.Errorf("%w: %d != %d", ErrValueSize, len(value), s.codec.valueLen)
	}
	s.stats.Puts++
	s.version++
	e := s.newEntry()
	e.real = true
	e.version = s.version
	e.id = id
	e.value = append(e.value[:0], value...)
	if err := s.bufferInsert(e); err != nil {
		return err
	}
	return s.afterAccess()
}

// afterAccess drives the deterministic shuffle schedule, the
// Goldreich–Ostrovsky cadence: every B accesses the buffer flushes
// into level 1; at period p (p-th flush), with m the number of
// trailing zero bits of p (capped at k−1), the contents cascade
// onward — level 1 into 2, 2 into 3, …, m into m+1 — leaving levels
// 1..m empty. The net effect is that everything gathered since the
// last multiple of 2^m lands in level m+1, which was emptied at the
// last multiple of 2^(m+1), so level m+1 ends holding at most
// 2^m·B reals: exactly half its slots, leaving one untouched dummy
// slot per access until its next shuffle. The schedule is
// occupancy-independent — it runs even for pure dummy traffic —
// because each access consumes one untouched dummy slot per level
// and only shuffles replenish the pools. Intermediate cascade steps
// transiently pack a level full; the merge's dummy-count invariant
// (pass B) still holds at every step and the level is emptied before
// any probe can observe the transient.
func (s *Store) afterAccess() error {
	s.accesses++
	if s.accesses%uint64(s.bufCap) != 0 {
		return nil
	}
	if s.relax > 1 {
		// Relaxed mode (§7 optimization): flushes still happen every B
		// accesses (the buffer is a fixed memory budget), but the
		// expensive dumps run only when a level's real occupancy
		// demands it — dummy-heavy traffic then never pays for a sort.
		// Levels can outlive their untouched-dummy pools; drawDummy's
		// re-touch fallback absorbs that, counted as the leak it is.
		if err := s.ensureRoom(0, len(s.buffer)); err != nil {
			return err
		}
		return s.flush()
	}
	if err := s.flush(); err != nil {
		return err
	}
	period := s.accesses / uint64(s.bufCap)
	m := 0
	for m < len(s.levels)-1 && period%(1<<uint(m+1)) == 0 {
		m++
	}
	for i := 0; i < m; i++ {
		if err := s.dump(i); err != nil {
			return err
		}
	}
	return nil
}

// occupancyCap is the real-entry threshold that triggers a dump of
// level i under the relaxed schedule. Strict mode keeps levels at
// most half full so untouched-dummy pools always cover an epoch;
// relaxed mode lets levels fill to within slots/(2·relax) of their
// physical size — that slack times fewer dumps is exactly where the
// sort savings come from, paid for in re-touches once pools drain.
// The slack also keeps the merge invariant intact: ensureRoom bounds
// the combined reals below the target's slot count.
func (s *Store) occupancyCap(i int) int {
	lv := s.levels[i]
	if s.relax <= 1 {
		return lv.capReal
	}
	slack := int(lv.region.Len) / (2 * s.relax)
	if slack < 1 {
		slack = 1
	}
	c := int(lv.region.Len) - slack
	if c < lv.capReal {
		c = lv.capReal
	}
	return c
}

// ensureRoom guarantees level i can absorb `incoming` more real
// entries, cascading occupancy-driven dumps downward as needed. The
// last level never dumps: merging into it deduplicates, and dump()
// itself raises ErrCacheFull if the distinct working set genuinely
// exceeds its capacity.
func (s *Store) ensureRoom(i, incoming int) error {
	lv := s.levels[i]
	if i == len(s.levels)-1 || lv.realCount+incoming <= s.occupancyCap(i) {
		return nil
	}
	if err := s.ensureRoom(i+1, lv.realCount); err != nil {
		return err
	}
	return s.dump(i)
}

// bufferInsert adds an entry to the buffer, flushing first if full.
// A superseded duplicate goes straight back to the freelist.
func (s *Store) bufferInsert(e *entry) error {
	old, dup := s.buffer[e.id]
	if !dup && len(s.buffer) >= s.bufCap {
		if err := s.flush(); err != nil {
			return err
		}
	}
	if dup && old != e {
		s.freeEntry(old)
	}
	s.buffer[e.id] = e
	return nil
}

// Flush forces the buffer into level 1 (exposed for shutdown).
func (s *Store) Flush() error {
	if len(s.buffer) == 0 {
		return nil
	}
	return s.flush()
}

// flush empties the buffer into level 1: the level is rewritten
// whole — existing entries merged with the buffer, deduplicated by
// version, re-encrypted and placed at a fresh random permutation —
// and its epoch restarts. Cost: one sequential read + write pass over
// 2B slots. The shuffle schedule (afterAccess) guarantees capacity;
// overflow here means a scheduling bug.
func (s *Store) flush() error {
	t0 := s.now()
	defer func() { s.stats.SortTime += s.now() - t0 }()
	s.stats.Flushes++

	lv := s.levels[0]

	// Collect survivors: level-1 entries not superseded by the buffer.
	// The level is scanned in batched sequential passes of B blocks.
	// Every entry comes off the freelist and every one goes back at the
	// end of the flush, so a steady-state flush allocates nothing.
	raws, recs := s.win.Raws, s.win.Recs
	entries := s.entriesBuf[:0]
	for slot := lv.region.Start; slot < lv.region.End(); {
		n := min(uint64(len(raws)), lv.region.End()-slot)
		if err := s.dev.ReadBlocks(slot, raws[:n]); err != nil {
			return err
		}
		s.stats.ShuffleReads += n
		for _, raw := range raws[:n] {
			e := s.newEntry()
			if err := s.codec.decodeInto(e, raw); err != nil {
				s.freeEntry(e)
				return err
			}
			if !e.real {
				s.freeEntry(e)
				continue
			}
			if b, ok := s.buffer[e.id]; ok && b.version >= e.version {
				s.freeEntry(e)
				continue
			}
			entries = append(entries, e)
		}
		slot += n
	}
	// Buffer entries join in version order, not map-iteration order:
	// versions are unique (a global counter), so this makes the whole
	// placement — and with it the sealed level image — a deterministic
	// function of the RNG stream, which is what lets the memory-plane
	// oracle compare full volume images across equal-seed runs.
	bufStart := len(entries)
	for _, e := range s.buffer {
		entries = append(entries, e)
	}
	slices.SortFunc(entries[bufStart:], func(a, b *entry) int {
		return cmp.Compare(a.version, b.version)
	})
	// At even periods the level transiently packs to its full slot
	// count; the cascade empties it before any probe. Physical
	// overflow would be a scheduling bug.
	if uint64(len(entries)) > lv.region.Len {
		return fmt.Errorf("oblivious: level 1 overflow (%d > %d slots)", len(entries), lv.region.Len)
	}

	// Random placement of reals among the 2B slots. The permutation is
	// drawn exactly as rng.Perm does (identity fill + Fisher–Yates), so
	// the RNG stream is untouched by the buffer reuse.
	slots := int(lv.region.Len)
	perm := s.permBuf[:slots]
	for i := range perm {
		perm[i] = i
	}
	s.rng.ShuffleInts(perm)
	clear(lv.index)
	s.realSlots.Reset()
	place := s.placeBuf[:slots]
	clear(place)
	for i, e := range entries {
		place[perm[i]] = e
	}
	// Each batch draws its nonces and dummy filler slot by slot while
	// the payloads are laid out, then its IVs as the batch is sealed.
	for off := 0; off < slots; {
		n := min(len(raws), slots-off)
		for i := 0; i < n; i++ {
			e := place[off+i]
			if e == nil {
				s.dummyEnt = entry{nonce: s.rng.Uint64()}
				e = &s.dummyEnt
			} else {
				e.nonce = s.rng.Uint64()
				lv.index[e.id] = lv.region.Start + uint64(off+i)
				s.realSlots.Set(uint64(off + i))
			}
			if err := s.codec.put(recs[i], e, s.rng.Fill); err != nil {
				return err
			}
		}
		if err := s.sealSlots(raws[:n], recs[:n]); err != nil {
			return err
		}
		if err := s.dev.WriteBlocks(lv.region.Start+uint64(off), raws[:n]); err != nil {
			return err
		}
		s.stats.ShuffleWrites += uint64(n)
		off += n
	}
	lv.realCount = len(entries)
	lv.resetEpoch(s.realSlots)
	for _, e := range entries {
		s.freeEntry(e)
	}
	s.entriesBuf = entries[:0]
	clear(s.buffer)
	return nil
}
