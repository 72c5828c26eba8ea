package sched

import (
	"testing"

	"steghide/internal/mempool"
	"steghide/internal/race"
)

// TestAllocBudgets pins the dummy-burst execute path's steady-state
// heap behaviour: after the first burst grows the pooled arena to its
// high-water mark, a 64-element burst allocates nothing — the block
// slab, IVs, lane lists and the lock-shard list all live in the pooled
// burstScratch. On a host whose RSS tracks garbage the cover daemon
// runs around the clock, so the floor is zero, not "a handful".
func TestAllocBudgets(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc ceilings don't hold under -race (the race runtime randomizes sync.Pool reuse)")
	}
	if !mempool.Enabled() {
		t.Skip("budgets pin the pooled configuration (STEGHIDE_MEMPOOL=0 set)")
	}
	s, _, _ := newBitmapRig(t, 1024, 0.5)
	const burst = 64
	// Warm-up: grow the arena and the draw/seal slices once.
	for i := 0; i < 3; i++ {
		if _, err := s.DummyUpdateBurst(burst); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.DummyUpdateBurst(burst); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DummyUpdateBurst(%d): %.1f allocs/burst (%.3f/element)", burst, allocs, allocs/burst)
	if allocs > 0 {
		t.Errorf("DummyUpdateBurst(%d) = %.1f allocs/burst, budget 0", burst, allocs)
	}
}
