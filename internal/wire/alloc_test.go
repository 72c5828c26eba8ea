package wire

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/race"
	"steghide/internal/stegfs"
	"steghide/internal/steghide"
)

// TestAllocBudgets pins the batched remote read path, client and
// server together (AllocsPerRun counts every goroutine): one scattered
// 64-block read must run out of pooled frame and batch buffers on both
// ends. The budget allows per-call channel/ctx bookkeeping but sits
// far below the old one-frame-plus-one-payload-per-block regime.
func TestAllocBudgets(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc ceilings don't hold under -race (the race runtime randomizes sync.Pool reuse)")
	}
	_, _, dev := newPair(t, 512, 256, nil)
	const n = 64
	idx := make([]uint64, n)
	for i := range idx {
		idx[i] = uint64((i * 37) % 256)
	}
	bufs := blockdev.AllocBlocks(n, 512)
	if err := dev.WriteBlocksAt(idx, bufs); err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadBlocksAt(idx, bufs); err != nil { // warm pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := dev.ReadBlocksAt(idx, bufs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReadBlocksAt(%d scattered): %.1f allocs/batch (%.3f/block)", n, allocs, allocs/n)
	if allocs > 48 {
		t.Errorf("ReadBlocksAt(%d) = %.1f allocs/batch, budget 48", n, allocs)
	}
	bulkRoundTripBudget(t)
}

// bulkRoundTripBudget pins the agent protocol's bulk path:
// once the pools are warm, a 256 KiB one-segment WriteV and the Read of
// the same range, and a WriteV of sixteen 4 KiB segments with the save,
// allocate no payload-sized buffer on either end — request and reply
// bodies are leased with their header room, written in one Write and
// returned, and the server's segments are views into the request. The
// measure is bytes, both ends together (one process): a single
// payload-sized allocation per round trip would show as ≥ the leg's
// payload.
func bulkRoundTripBudget(t *testing.T) {
	ctx := context.Background()
	vol, err := stegfs.Format(blockdev.NewMem(4096, 1024),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("bulk")})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{"": steghide.NewVolatile(vol, prng.NewFromUint64(3))}, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialAgent(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Login(ctx, "", "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := cli.CreateDummy(ctx, "/cover", 512); err != nil {
		t.Fatal(err)
	}
	if err := cli.Create(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	const payload = 256 << 10
	data := prng.NewFromUint64(4).Bytes(payload)
	got := make([]byte, payload)
	// The sixteen-segment leg: scattered 4 KiB writes and the save, as
	// a remote handle's Close sends them.
	const seg = 4 << 10
	segs := make([]Segment, 16)
	for i := range segs {
		off := (i * 37 % 64) * seg
		segs[i] = Segment{Off: uint64(off), Data: data[off : off+seg]}
	}
	// No GC and one P from the warm-up on: a collection empties the
	// pools, and a buffer Put into one P's private slot is invisible to a
	// Get on another, so on a loaded host either reads as the per-call
	// payload buffer this budget is about.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, leg := range []struct {
		name    string
		payload int
		trip    func()
	}{
		{"256 KiB one-segment WriteV + Read", payload, func() {
			if err := cli.WriteV(ctx, "/f", Then{}, Segment{Data: data}); err != nil {
				t.Fatal(err)
			}
			if n, err := cli.Read(ctx, "/f", got, 0); err != nil || n != payload {
				t.Fatalf("read %d, %v", n, err)
			}
		}},
		{"sixteen-segment WriteV with save", len(segs) * seg, func() {
			if err := cli.WriteV(ctx, "/f", Then{Save: true}, segs...); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		for i := 0; i < 3; i++ { // warm the pools and the file's scratch
			leg.trip()
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			leg.trip()
		}
		runtime.ReadMemStats(&after)
		perTrip := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d B allocated per round trip, both ends", leg.name, perTrip)
		if perTrip >= uint64(leg.payload)/2 {
			t.Errorf("%s allocates %d B; a payload-sized buffer is being allocated per call", leg.name, perTrip)
		}
	}
}
