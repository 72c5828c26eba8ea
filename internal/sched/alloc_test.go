package sched

import (
	"context"
	"testing"

	"steghide/internal/race"
)

// TestAllocBudgets pins the batch path's steady-state heap behaviour:
// after the first batches grow a free-listed scratch to its high-water
// mark, a 64-element dummy burst, a 64-block data-update run and the
// single-block update that is its n = 1 case allocate nothing — the
// plan, the block slab, IVs, lane lists and the lock-shard list all
// live in the scheduler's batch scratch. On a host whose RSS tracks
// garbage the cover daemon runs around the clock and every WriteAt is a
// run, so the floor is zero, not "a handful".
func TestAllocBudgets(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc ceilings don't hold under -race (the race runtime randomizes sync.Pool reuse)")
	}
	s, vol, source := newBitmapRig(t, 1024, 0.5)
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

	// The run re-places the same sealed blocks every time: placement
	// does not look inside them.
	seal, err := vol.NewSealer([32]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	locs := writeFile(t, vol, source, seal, burst)
	payloads := make([][]byte, burst)
	for i := range payloads {
		payloads[i] = genPayload(vol, i, 1)
	}
	sealed := sealRun(t, vol, seal, payloads)
	ctx := context.Background()
	update := map[string]func(){
		"UpdateRun(64)": func() {
			if err := s.UpdateRun(ctx, locs, 0, seal, sealed); err != nil {
				t.Fatal(err)
			}
		},
		"UpdateRun(1)": func() {
			if err := s.UpdateRun(ctx, locs[:1], 0, seal, sealed[:1]); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, f := range update {
		for i := 0; i < 3; i++ {
			f()
		}
		allocs := testing.AllocsPerRun(20, f)
		t.Logf("%s: %.1f allocs/call", name, allocs)
		if allocs > 0 {
			t.Errorf("%s = %.1f allocs/call, budget 0", name, allocs)
		}
	}
}
