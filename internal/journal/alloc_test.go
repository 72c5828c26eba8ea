package journal

import (
	"testing"

	"steghide/internal/race"
)

// TestAllocBudgets pins the intent append path at zero steady-state
// heap allocations per record, single or batched: encode reuses the
// cached slot images, the record-area and tag scratch, the IV stream
// draws and the filler keystream come from the alloc-free PRNG, the
// lanes seal in place and the ring write lands in the device's own
// storage. Any regression
// here multiplies across every dummy burst the daemon emits.
func TestAllocBudgets(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc ceilings don't hold under -race (the race runtime randomizes sync.Pool reuse)")
	}
	vol, _ := newVol(t, 512, 256, 32)
	j, err := Open(vol, testKey())
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: first appends populate lazy state (tag snapshot, sum buffer).
	if err := j.AppendDummy(); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendReloc(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := j.AppendDummy(); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("AppendDummy: %.1f allocs/op, budget 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := j.AppendReloc(7, 8, 9); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("AppendReloc: %.1f allocs/op, budget 0", n)
	}
	locs := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if n := testing.AllocsPerRun(50, func() {
		if err := j.AppendAlloc(7, locs); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("AppendAlloc(9 addresses): %.1f allocs/op, budget 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := appendFillers(j, 16); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("AppendBatch(16 fillers): %.1f allocs/op, budget 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		err := j.AppendBatch(16, func(i int, r *Record) {
			r.Op = OpDummy
			if i%2 == 1 {
				*r = Record{Op: OpReloc, FileH: 7, OldLoc: 8, NewLoc: uint64(9 + i)}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("AppendBatch(16 mixed): %.1f allocs/op, budget 0", n)
	}
}
