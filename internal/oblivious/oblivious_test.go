package oblivious

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/sealer"
	"steghide/internal/stats"
)

// drainBuffer empties a non-empty buffer into level 1, as the next
// insert into a full buffer would.
func drainBuffer(s *Store) error {
	if len(s.buffer) == 0 {
		return nil
	}
	return s.flush()
}

// newStore builds a small store: B=4, k=3 → levels of 8/16/32 slots,
// capacity 16 distinct blocks, on a 128-byte-block device.
func newStore(t *testing.T, bufCap, levels int) (*Store, *blockdev.Collector) {
	t.Helper()
	col := &blockdev.Collector{}
	need := Footprint(bufCap, levels)
	dev := blockdev.NewTraced(blockdev.NewMem(128, need), col)
	s, err := New(Config{
		Dev:          dev,
		Key:          sealer.DeriveKey([]byte("k"), "obli-test"),
		BufferBlocks: bufCap,
		Levels:       levels,
		RNG:          prng.NewFromUint64(99),
	})
	if err != nil {
		t.Fatal(err)
	}
	col.Reset()
	return s, col
}

func val(s *Store, seed uint64) []byte {
	return prng.NewFromUint64(seed).Bytes(s.ValueSize())
}

func TestFootprint(t *testing.T) {
	// B=4, k=3: 8+16+32 levels + 3*16 scratch = 104.
	if got := Footprint(4, 3); got != 104 {
		t.Fatalf("Footprint(4,3) = %d", got)
	}
}

func TestNewValidation(t *testing.T) {
	dev := blockdev.NewMem(128, 10)
	key := sealer.DeriveKey([]byte("k"), "x")
	rng := prng.NewFromUint64(1)
	if _, err := New(Config{Dev: dev, Key: key, BufferBlocks: 1, Levels: 3, RNG: rng}); err == nil {
		t.Fatal("tiny buffer accepted")
	}
	if _, err := New(Config{Dev: dev, Key: key, BufferBlocks: 4, Levels: 0, RNG: rng}); err == nil {
		t.Fatal("zero levels accepted")
	}
	if _, err := New(Config{Dev: dev, Key: key, BufferBlocks: 4, Levels: 3, RNG: rng}); err == nil {
		t.Fatal("undersized device accepted")
	}
	// 64-byte blocks leave exactly zero value bytes: rejected.
	if _, err := New(Config{Dev: blockdev.NewMem(64, 1000), Key: key, BufferBlocks: 4, Levels: 3, RNG: rng}); err == nil {
		t.Fatal("zero-value-capacity blocks accepted")
	}
	// 96-byte blocks leave 32 value bytes: fine.
	if _, err := New(Config{Dev: blockdev.NewMem(96, 1000), Key: key, BufferBlocks: 4, Levels: 3, RNG: rng}); err != nil {
		t.Fatalf("96-byte blocks should fit entries: %v", err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := newStore(t, 4, 3)
	ids := make([]BlockID, 10)
	for i := range ids {
		ids[i] = BlockID{File: 1, Index: uint64(i)}
		if err := s.Put(ids[i], val(s, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Everything must be retrievable, across buffer and levels.
	for i, id := range ids {
		got, ok, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("block %d lost", i)
		}
		if !bytes.Equal(got, val(s, uint64(i))) {
			t.Fatalf("block %d corrupted", i)
		}
	}
}

func TestGetMiss(t *testing.T) {
	s, _ := newStore(t, 4, 3)
	if _, ok, err := s.Get(BlockID{File: 9, Index: 9}); err != nil || ok {
		t.Fatalf("expected clean miss: %v %v", ok, err)
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOverwriteNewestWins(t *testing.T) {
	s, _ := newStore(t, 4, 3) // capacity 16 distinct blocks
	id := BlockID{File: 1, Index: 0}
	for v := 0; v < 14; v++ {
		if err := s.Put(id, val(s, uint64(v))); err != nil {
			t.Fatal(err)
		}
		// Interleave other traffic to force flushes and merges
		// (12 distinct extra ids + this one stays within capacity).
		if err := s.Put(BlockID{File: 2, Index: uint64(v % 12)}, val(s, 1000+uint64(v))); err != nil {
			t.Fatal(err)
		}
	}
	got, ok, err := s.Get(id)
	if err != nil || !ok {
		t.Fatalf("lost overwritten block: %v %v", ok, err)
	}
	if !bytes.Equal(got, val(s, 13)) {
		t.Fatal("stale version returned after merges")
	}
}

func TestValueSizeChecked(t *testing.T) {
	s, _ := newStore(t, 4, 3)
	if err := s.Put(BlockID{}, make([]byte, 3)); !errors.Is(err, ErrValueSize) {
		t.Fatalf("short value: %v", err)
	}
}

func TestCapacityOverflow(t *testing.T) {
	s, _ := newStore(t, 4, 2) // capacity = 2^(2-1)*4 = 8 distinct blocks
	var err error
	for i := 0; i < 200 && err == nil; i++ {
		err = s.Put(BlockID{File: 1, Index: uint64(i)}, val(s, uint64(i)))
	}
	if !errors.Is(err, ErrCacheFull) {
		t.Fatalf("expected ErrCacheFull, got %v", err)
	}
}

func TestNeverTouchASlotTwice(t *testing.T) {
	// The hierarchical-ORAM invariant: within one epoch of a level, no
	// slot is read twice by the retrieval path. Ops that trigger a
	// shuffle are skipped (their trace mixes retrieval and shuffle
	// I/O); epochs reset at shuffles, so the per-epoch key stays sound
	// across them.
	s, col := newStore(t, 4, 3)
	rng := prng.NewFromUint64(5)
	const blocks = 12

	type key struct {
		level int
		epoch uint64
		slot  uint64
	}
	seen := map[key]bool{}
	levelOf := func(slot uint64) int {
		for i, lv := range s.levels {
			if slot >= lv.region.Start && slot < lv.region.End() {
				return i
			}
		}
		return -1
	}

	for i := 0; i < blocks; i++ {
		if err := s.Put(BlockID{File: 1, Index: uint64(i)}, val(s, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	checked := 0
	for op := 0; op < 600; op++ {
		col.Reset()
		before := s.Stats()
		switch rng.Intn(3) {
		case 0:
			id := BlockID{File: 1, Index: uint64(rng.Intn(blocks))}
			if _, _, err := s.Get(id); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, _, err := s.Get(BlockID{File: 7, Index: uint64(rng.Intn(50))}); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := s.DummyRead(); err != nil {
				t.Fatal(err)
			}
		}
		after := s.Stats()
		if after.Flushes+after.Dumps > before.Flushes+before.Dumps {
			continue // shuffle I/O mixed into this op's trace
		}
		for _, e := range col.Events() {
			if e.Op != blockdev.OpRead {
				continue
			}
			li := levelOf(e.Block)
			if li < 0 {
				continue // scratch traffic
			}
			k := key{level: li, epoch: s.levels[li].epoch, slot: e.Block}
			if seen[k] {
				t.Fatalf("op %d: slot %d of level %d read twice in epoch %d", op, e.Block, li+1, k.epoch)
			}
			seen[k] = true
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("invariant never exercised")
	}
}

func TestExhaustedDummyPoolIsAnError(t *testing.T) {
	// The schedule refills every pool before it runs dry; should one
	// run dry anyway, the access fails with the cadence error instead
	// of re-touching a slot probed earlier in the epoch.
	s, col := newStore(t, 4, 3)
	for i := 0; i < 3; i++ {
		if err := s.Put(BlockID{File: 1, Index: uint64(i)}, val(s, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Two misses probe level 2 twice in its first epoch; the first
	// ends a period and flushes, which rewrites level 1 only.
	const li = 1
	lv := s.levels[li]
	epoch := lv.epoch
	for i := 0; i < 2; i++ {
		if _, _, err := s.Get(BlockID{File: 7, Index: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	touched := map[uint64]bool{}
	for _, e := range col.Events() {
		if e.Op == blockdev.OpRead && e.Block >= lv.region.Start && e.Block < lv.region.End() {
			touched[e.Block] = true
		}
	}
	if len(touched) != 2 || lv.epoch != epoch {
		t.Fatalf("setup: %d level-2 probes in epoch %d→%d, want 2 in one epoch", len(touched), epoch, lv.epoch)
	}

	lv.unreadDummies = lv.unreadDummies[:0]
	col.Reset()
	before := s.Stats()
	for _, access := range []struct {
		name string
		run  func() error
	}{
		{"Get", func() error {
			_, _, err := s.Get(BlockID{File: 7, Index: 2})
			return err
		}},
		{"DummyRead", s.DummyRead},
	} {
		if err := access.run(); err == nil || !strings.Contains(err.Error(), "exhausted its dummy slots") {
			t.Fatalf("%s on an exhausted level: err = %v, want the exhausted-dummy-slots error", access.name, err)
		}
	}
	for _, e := range col.Events() {
		if e.Op == blockdev.OpRead && touched[e.Block] {
			t.Fatalf("slot %d of level %d re-touched in epoch %d", e.Block, li+1, lv.epoch)
		}
	}
	if after := s.Stats(); after.LevelReads != before.LevelReads || after.ReTouches != 0 {
		t.Fatalf("failed accesses probed: level reads %d→%d, re-touches %d", before.LevelReads, after.LevelReads, after.ReTouches)
	}
}

func TestOneReadPerLevelPerAccess(t *testing.T) {
	// Each non-buffer-hit access reads exactly one slot per level.
	s, col := newStore(t, 4, 3)
	for i := 0; i < 10; i++ {
		if err := s.Put(BlockID{File: 1, Index: uint64(i)}, val(s, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Drain the buffer so Gets hit levels.
	if err := drainBuffer(s); err != nil {
		t.Fatal(err)
	}
	levelOf := func(slot uint64) int {
		for i, lv := range s.levels {
			if slot >= lv.region.Start && slot < lv.region.End() {
				return i
			}
		}
		return -1
	}
	rng := prng.NewFromUint64(3)
	for op := 0; op < 30; op++ {
		col.Reset()
		statsBefore := s.Stats()
		var err error
		if op%2 == 0 {
			_, _, err = s.Get(BlockID{File: 1, Index: uint64(rng.Intn(10))})
		} else {
			err = s.DummyRead()
		}
		if err != nil {
			t.Fatal(err)
		}
		if s.Stats().BufferHits > statsBefore.BufferHits {
			continue // buffer hit: no level I/O expected
		}
		shuffled := s.Stats().Flushes+s.Stats().Dumps > statsBefore.Flushes+statsBefore.Dumps
		counts := map[int]int{}
		reads := uint64(0)
		for _, e := range col.Events() {
			if e.Op == blockdev.OpRead {
				if li := levelOf(e.Block); li >= 0 {
					counts[li]++
					reads++
				}
			}
		}
		if shuffled {
			continue // shuffle reads pollute the count for this op
		}
		for li := range s.levels {
			if counts[li] != 1 {
				t.Fatalf("op %d: level %d read %d times (want 1); counts=%v", op, li+1, counts[li], counts)
			}
		}
	}
}

func TestDummyReadIndistinguishableFromGet(t *testing.T) {
	// Distribution check: the multiset of level-slot positions read by
	// dummy reads vs real reads must be statistically indistinguishable.
	s, _ := newStore(t, 8, 3)
	const blocks = 20
	for i := 0; i < blocks; i++ {
		if err := s.Put(BlockID{File: 1, Index: uint64(i)}, val(s, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	col := &blockdev.Collector{}
	// Rewire: re-wrap is not possible, so sample via the stats of slot
	// positions with a fresh store + traced device instead.
	_ = col

	collect := func(dummy bool, seed uint64) []uint64 {
		c := &blockdev.Collector{}
		need := Footprint(8, 3)
		dev := blockdev.NewTraced(blockdev.NewMem(128, need), c)
		st, err := New(Config{Dev: dev, Key: sealer.DeriveKey([]byte("k"), "d"),
			BufferBlocks: 8, Levels: 3, RNG: prng.NewFromUint64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < blocks; i++ {
			if err := st.Put(BlockID{File: 1, Index: uint64(i)}, make([]byte, st.ValueSize())); err != nil {
				t.Fatal(err)
			}
		}
		drainBuffer(st)
		c.Reset()
		rng := prng.NewFromUint64(seed + 1)
		lastLevel := st.levels[len(st.levels)-1].region
		for op := 0; op < 800; op++ {
			if dummy {
				if err := st.DummyRead(); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, _, err := st.Get(BlockID{File: 1, Index: uint64(rng.Intn(blocks))}); err != nil {
					t.Fatal(err)
				}
			}
		}
		var out []uint64
		for _, e := range c.Events() {
			if e.Op == blockdev.OpRead && e.Block >= lastLevel.Start && e.Block < lastLevel.End() {
				out = append(out, e.Block-lastLevel.Start)
			}
		}
		return out
	}

	dummyReads := collect(true, 100)
	realReads := collect(false, 200)
	h1 := stats.Histogram(dummyReads, s.levels[len(s.levels)-1].region.Len, 8)
	h2 := stats.Histogram(realReads, s.levels[len(s.levels)-1].region.Len, 8)
	_, p, err := stats.ChiSquareTwoSample(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("dummy and real reads distinguishable on last level: p=%v\nh1=%v\nh2=%v", p, h1, h2)
	}
}

func TestStatsAccounting(t *testing.T) {
	s, _ := newStore(t, 4, 3)
	for i := 0; i < 6; i++ {
		if err := s.Put(BlockID{File: 1, Index: uint64(i)}, val(s, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Get(BlockID{File: 1, Index: 0})
	s.DummyRead()
	st := s.Stats()
	if st.Puts != 6 || st.Gets != 1 || st.DummyReads != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Flushes == 0 {
		t.Fatal("scheduled flushes did not run")
	}
	s.ResetStats()
	if s.Stats().Puts != 0 {
		t.Fatal("reset failed")
	}
}

func TestLevelGeometry(t *testing.T) {
	s, _ := newStore(t, 4, 3)
	if len(s.levels) != 3 || s.bufCap != 4 {
		t.Fatal("geometry accessors")
	}
	if s.Capacity() != 16 {
		t.Fatalf("capacity %d, want 16", s.Capacity())
	}
	if s.ValueSize() != 128-16-48 {
		t.Fatalf("value size %d", s.ValueSize())
	}
	// Levels adjacent, doubling.
	want := uint64(0)
	for i, lv := range s.levels {
		if lv.region.Start != want {
			t.Fatalf("level %d starts at %d, want %d", i+1, lv.region.Start, want)
		}
		if lv.region.Len != uint64(4)<<uint(i+1) {
			t.Fatalf("level %d has %d slots", i+1, lv.region.Len)
		}
		want = lv.region.End()
	}
}

func TestManyBlocksChurn(t *testing.T) {
	// Random mixed workload against a mirror map.
	s, _ := newStore(t, 8, 4) // capacity 64
	rng := prng.NewFromUint64(77)
	mirror := map[BlockID][]byte{}
	for op := 0; op < 3000; op++ {
		id := BlockID{File: uint64(rng.Intn(3)), Index: uint64(rng.Intn(20))}
		switch rng.Intn(3) {
		case 0:
			v := val(s, uint64(op))
			if err := s.Put(id, v); err != nil {
				t.Fatal(err)
			}
			mirror[id] = v
		case 1:
			got, ok, err := s.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			want, exists := mirror[id]
			if ok != exists {
				t.Fatalf("op %d: presence mismatch for %v: got %v want %v", op, id, ok, exists)
			}
			if ok && !bytes.Equal(got, want) {
				t.Fatalf("op %d: value mismatch for %v", op, id)
			}
		case 2:
			if err := s.DummyRead(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
