package stegfs

import (
	"testing"

	"steghide/internal/prng"
	"steghide/internal/race"
)

// TestAllocBudgets pins the file layer's two bulk paths. A full ReadAt
// over a 128-block file runs its batched reads out of pooled slabs and
// the file's cached carve tables, so the whole 64-KB-payload scan must
// stay within a small constant of allocations — not the
// one-raw-one-payload-per-block it used to cost. A WriteAt of whole
// blocks seals each run of 64 into one pooled slab and hands the policy
// the run through the same cached tables, so it — and the single-block
// write that is the run of one — allocates nothing.
func TestAllocBudgets(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc ceilings don't hold under -race (the race runtime randomizes sync.Pool reuse)")
	}
	vol, src := benchVolume(t, 1<<14)
	fak := DeriveFAK("u", "/alloc", vol)
	f, err := CreateFile(vol, fak, "/alloc", src)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 128
	data := prng.NewFromUint64(3).Bytes(blocks * vol.PayloadSize())
	if _, err := f.WriteAt(data, 0, InPlacePolicy{Vol: vol}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if _, err := f.ReadAt(buf, 0); err != nil { // warm the carve tables
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReadAt(%d blocks): %.1f allocs/scan (%.3f/block)", blocks, allocs, allocs/blocks)
	if allocs > 16 {
		t.Errorf("ReadAt(%d blocks) = %.1f allocs/scan, budget 16", blocks, allocs)
	}

	policy := InPlacePolicy{Vol: vol}
	writes := map[string]func() error{
		"WriteAt(128 blocks)": func() error { _, err := f.WriteAt(data, 0, policy); return err },
		"WriteBlockAt":        func() error { return f.WriteBlockAt(5, data[:vol.PayloadSize()], policy) },
	}
	for name, write := range writes {
		if err := write(); err != nil { // warm the slab's size class
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := write(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs/call", name, allocs)
		if allocs > 0 {
			t.Errorf("%s = %.1f allocs/call, budget 0", name, allocs)
		}
	}
}
