package oblivious

import (
	"bytes"
	"cmp"
	"maps"
	"slices"
	"testing"

	"steghide/internal/extsort"
	"steghide/internal/prng"
)

// cascadeGeoms are the (B, k) geometries the cascade tests run at: the
// cascades of m = 1..k−2 sort 2 to 8 windows of B slots.
var cascadeGeoms = []struct{ bufCap, levels int }{{4, 4}, {8, 5}}

// cascadePeriod is the period at which the cascade tests catch the
// cascade into level m+1: 3·2^m, the second period with exactly m
// trailing zeros, so level m+1 has been filled and emptied once
// before.
func cascadePeriod(m int) uint64 { return 3 << uint(m) }

// putUntil puts blocks i % distinct, for i counting on from the store's
// access count, until the store has made n accesses. Values are
// val(s, seed<<16+i), recorded in model when it is non-nil.
func putUntil(t testing.TB, s *Store, n uint64, seed uint64, distinct int, model map[uint64][]byte) {
	t.Helper()
	for s.accesses < n {
		i := s.accesses
		idx := i % uint64(distinct)
		v := val(s, seed<<16+i)
		if model != nil {
			model[idx] = v
		}
		if err := s.Put(BlockID{File: seed, Index: idx}, v); err != nil {
			t.Fatal(err)
		}
	}
}

// indexedIDs lists, per level, the ids its index holds, sorted.
func indexedIDs(s *Store) [][]BlockID {
	var out [][]BlockID
	for _, lv := range s.levels {
		out = append(out, slices.SortedFunc(maps.Keys(lv.index), func(a, b BlockID) int {
			return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Index, b.Index))
		}))
	}
	return out
}

// TestCascadeMatchesPairwiseDumps drives one seeded Put/Get stream
// through two stores of the same seed: one cascades into an empty
// level with one sort and a refill, its twin runs the pairwise dumps.
// The slots differ (the draws diverge at the first cascade), but every
// value read back, every hit and miss, and every level's set of ids
// must agree after every access. After each cascade, levels 1..m hold
// no real block and level m+1 is at most half real.
func TestCascadeMatchesPairwiseDumps(t *testing.T) {
	for _, g := range cascadeGeoms {
		one, _ := tappedStore(t, g.bufCap, g.levels, 40, 0)
		twin, _ := tappedStore(t, g.bufCap, g.levels, 40, 0)
		twin.pairwise = true
		rng := prng.NewFromUint64(41)
		model := map[uint64][]byte{}
		periods := uint64(4) << uint(g.levels-1)
		cascades := 0
		for op := uint64(0); one.accesses < periods*uint64(g.bufCap); op++ {
			idx := rng.Uint64n(uint64(one.Capacity()))
			id := BlockID{File: 1, Index: idx}
			before := one.accesses
			if rng.Intn(3) == 0 {
				model[idx] = val(one, op)
				for _, s := range []*Store{one, twin} {
					if err := s.Put(id, model[idx]); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				for _, s := range []*Store{one, twin} {
					got, ok, err := s.Get(id)
					if err != nil {
						t.Fatal(err)
					}
					if want, cached := model[idx]; ok != cached || !bytes.Equal(got, want) {
						t.Fatalf("(%d,%d) op %d (pairwise %v): Get(%d) = %v, %x; model has %v, %x", g.bufCap, g.levels, op, s.pairwise, idx, ok, got, cached, want)
					}
				}
			}
			a, b := indexedIDs(one), indexedIDs(twin)
			for li := range a {
				if !slices.Equal(a[li], b[li]) {
					t.Fatalf("(%d,%d) op %d: level %d holds %v, its pairwise twin %v",
						g.bufCap, g.levels, op, li+1, a[li], b[li])
				}
			}
			if one.accesses == before || one.accesses%uint64(g.bufCap) != 0 {
				continue
			}
			m := cascadeDepth(one.accesses/uint64(g.bufCap), g.levels)
			if m == 0 {
				continue
			}
			cascades++
			for li, lv := range one.levels[:m] {
				if len(lv.index) != 0 {
					t.Fatalf("(%d,%d) period %d: level %d holds %d reals after the cascade", g.bufCap, g.levels, one.accesses/uint64(g.bufCap), li+1, len(lv.index))
				}
			}
			if to := one.levels[m]; len(to.index) > to.capReal {
				t.Fatalf("(%d,%d) period %d: level %d holds %d reals in %d slots", g.bufCap, g.levels, one.accesses/uint64(g.bufCap), m+1, len(to.index), to.region.Len)
			}
		}
		st, tw := one.Stats(), twin.Stats()
		if st.Hits != tw.Hits || st.Misses != tw.Misses || st.BufferHits != tw.BufferHits || st.Flushes != tw.Flushes {
			t.Fatalf("(%d,%d): stats %+v, pairwise twin %+v", g.bufCap, g.levels, st, tw)
		}
		if st.Dumps >= tw.Dumps || st.ShuffleReads >= tw.ShuffleReads {
			t.Fatalf("(%d,%d): %d sorts and %d shuffle reads, the pairwise twin %d and %d", g.bufCap, g.levels, st.Dumps, st.ShuffleReads, tw.Dumps, tw.ShuffleReads)
		}
		t.Logf("(%d,%d): %d cascades, %d hits; %d sorts and %d+%d shuffle I/O against the twin's %d and %d+%d",
			g.bufCap, g.levels, cascades, st.Hits, st.Dumps, st.ShuffleReads, st.ShuffleWrites, tw.Dumps, tw.ShuffleReads, tw.ShuffleWrites)
	}
}

// TestEverySortFitsScratch walks one whole cycle of the strict
// schedule, 2^(k−1) periods, for k = 1..10 and B ∈ {2, 4, 32}, and
// checks that every sort it runs — a cascade into an empty level, or
// a dump of the last level's cascade — fits the scratch region: the
// source no longer than scratch, the destination as long as the
// source, neither overlapping scratch, and all of it inside Footprint.
// The largest sort is dump(k−2), which is what Footprint sizes the
// scratch for.
func TestEverySortFitsScratch(t *testing.T) {
	for _, b := range []int{2, 4, 32} {
		for k := 1; k <= 10; k++ {
			lvs, scratch := layout(b, k)
			s := &Store{levels: lvs, scratch: scratch}
			if scratch.End() != Footprint(b, k) {
				t.Fatalf("(%d,%d): layout ends at %d, Footprint is %d", b, k, scratch.End(), Footprint(b, k))
			}
			var largest uint64
			fits := func(what string, src, dst extsort.Region) {
				if src.Len > scratch.Len || dst.Len != src.Len || src.Overlaps(scratch) || dst.Overlaps(scratch) || max(src.End(), dst.End()) > scratch.Start {
					t.Fatalf("(%d,%d) %s: sorts %+v into %+v, scratch %+v", b, k, what, src, dst, scratch)
				}
				largest = max(largest, src.Len)
			}
			for p := uint64(1); p <= 1<<uint(k-1); p++ {
				switch m := cascadeDepth(p, k); {
				case m == 0:
				case m < k-1:
					fits("cascade", s.cascadeSort(m), lvs[m].region)
				default:
					for i := 0; i < m; i++ {
						fits("dump", s.dumpSort(i), s.dumpSort(i))
					}
				}
			}
			if k >= 2 && (largest != s.dumpSort(k-2).Len || largest != scratch.Len) {
				t.Fatalf("(%d,%d): largest sort %d slots, dump(k−2) %d, scratch %d", b, k, largest, s.dumpSort(k-2).Len, scratch.Len)
			}
		}
	}
}
