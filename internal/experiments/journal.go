package experiments

import (
	"context"
	"fmt"
	"time"

	"steghide/internal/attack"
	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
	"steghide/internal/steghide"
)

// journalBS is the block size the journaling-overhead experiment runs
// at — the paper's 4 KB (Table 2). The ring cost is dominated by the
// sealed record prefix, a fixed 256+16 bytes, so the relative
// overhead depends on the block size; measuring at the deployment
// size is the honest number.
const journalBS = 4096

// journalVolBlocks bounds the rig volume (64 MB at 4 KB blocks): the
// journal's cost is per-operation, and larger slabs only add memory
// noise (cache and TLB misses) that buries the signal being measured.
func journalVolBlocks(s Scale) uint64 {
	n := s.VolumeBlocks / 2
	if n > 1<<14 {
		n = 1 << 14
	}
	return n
}

// journalRunner drives one construction for the overhead measurement.
type journalRunner struct {
	update func(off uint64) error
	sync   func() error
	dummy  func(n int) (int, error)
}

// buildJournalC1 builds a Construction-1 rig, journaled or not.
func buildJournalC1(s Scale, journaled bool, seed uint64) (*journalRunner, *stegfs.Volume, *blockdev.Collector, error) {
	col := &blockdev.Collector{}
	var ring uint64
	if journaled {
		ring = 256
	}
	dev := blockdev.NewTraced(blockdev.NewMem(journalBS, journalVolBlocks(s)+ring), col)
	rng := prng.NewFromUint64(seed)
	vol, err := stegfs.Format(dev, stegfs.FormatOptions{
		KDFIterations: 4, FillSeed: rng.Bytes(16), JournalBlocks: ring,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	agent, err := steghide.NewNonVolatile(vol, rng.Bytes(32), rng.Child("agent"))
	if err != nil {
		return nil, nil, nil, err
	}
	if journaled {
		if err := agent.EnableJournal(); err != nil {
			return nil, nil, nil, err
		}
	}
	f, err := agent.Create("u", "/target")
	if err != nil {
		return nil, nil, nil, err
	}
	ctx := context.Background()
	content := make([]byte, s.UpdateFileBlocks*uint64(vol.PayloadSize()))
	if err := agent.Write(ctx, "/target", f, content, 0); err != nil {
		return nil, nil, nil, err
	}
	if err := agent.Sync(ctx, "/target", f); err != nil {
		return nil, nil, nil, err
	}
	ps := uint64(vol.PayloadSize())
	chunk := make([]byte, ps)
	return &journalRunner{
		update: func(off uint64) error { return agent.Write(ctx, "/target", f, chunk, off*ps) },
		sync:   func() error { return agent.Sync(ctx, "/target", f) },
		dummy:  agent.DummyUpdateBurst,
	}, vol, col, nil
}

// buildJournalC2 builds a Construction-2 rig, journaled or not.
func buildJournalC2(s Scale, journaled bool, seed uint64) (*journalRunner, *stegfs.Volume, *blockdev.Collector, error) {
	ctx := context.Background()
	col := &blockdev.Collector{}
	var ring uint64
	if journaled {
		ring = 256
	}
	dev := blockdev.NewTraced(blockdev.NewMem(journalBS, journalVolBlocks(s)+ring), col)
	rng := prng.NewFromUint64(seed)
	vol, err := stegfs.Format(dev, stegfs.FormatOptions{
		KDFIterations: 4, FillSeed: rng.Bytes(16), JournalBlocks: ring,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	agent := steghide.NewVolatile(vol, rng.Child("agent"))
	if journaled {
		if err := agent.EnableJournal(steghide.JournalKey(vol, "benchrunner-admin")); err != nil {
			return nil, nil, nil, err
		}
	}
	sess, err := agent.Login("u", "u-pass")
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := sess.CreateDummy("/cover", 4*s.UpdateFileBlocks+64); err != nil {
		return nil, nil, nil, err
	}
	if _, err := sess.Create("/target"); err != nil {
		return nil, nil, nil, err
	}
	content := make([]byte, s.UpdateFileBlocks*uint64(vol.PayloadSize()))
	if err := sess.Write(ctx, "/target", content, 0); err != nil {
		return nil, nil, nil, err
	}
	if err := sess.Save(ctx, "/target"); err != nil {
		return nil, nil, nil, err
	}
	ps := uint64(vol.PayloadSize())
	chunk := make([]byte, ps)
	return &journalRunner{
		update: func(off uint64) error { return sess.Write(ctx, "/target", chunk, off*ps) },
		sync:   func() error { return sess.Save(ctx, "/target") },
		dummy:  agent.DummyUpdateBurst,
	}, vol, col, nil
}

// measureJournal times M random single-block updates (saving every 64
// so relocation limbo drains the way a live system's sync cadence
// would) and returns updates/second plus device writes per update.
// Three rounds, best rate: single-shot wall timing on a shared box is
// dominated by scheduling noise.
func measureJournal(r *journalRunner, col *blockdev.Collector, s Scale, updates int, seed uint64) (float64, float64, error) {
	best := 0.0
	writes := 0
	for round := 0; round < 3; round++ {
		rng := prng.NewFromUint64(seed + uint64(round))
		col.Reset()
		start := time.Now()
		for i := 0; i < updates; i++ {
			if err := r.update(rng.Uint64n(s.UpdateFileBlocks)); err != nil {
				return 0, 0, err
			}
			if (i+1)%64 == 0 {
				if err := r.sync(); err != nil {
					return 0, 0, err
				}
			}
		}
		if err := r.sync(); err != nil {
			return 0, 0, err
		}
		if rate := float64(updates) / time.Since(start).Seconds(); rate > best {
			best = rate
			// Report the write count from the round the rate comes
			// from, so the two columns describe one measurement.
			writes = 0
			for _, e := range blockdev.ExpandEvents(col.Events()) {
				if e.Op == blockdev.OpWrite {
					writes++
				}
			}
		}
	}
	return best, float64(writes) / float64(updates), nil
}

// JournalOverhead measures what the sealed intent journal costs the
// update path — throughput and device writes per update, journaling
// off vs on — and re-runs the Definition-1 comparison with journaling
// enabled, ring traffic included in the observed stream.
func JournalOverhead(s Scale) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "journal",
		Title: "Intent journal: durability overhead and stream indistinguishability",
		Columns: []string{"system", "upd/s plain", "upd/s journaled", "overhead",
			"writes/upd plain", "writes/upd journaled", "Def-1 p", "attacker verdict"},
	}
	updates := s.UpdatesPerPoint * 3
	type builder func(Scale, bool, uint64) (*journalRunner, *stegfs.Volume, *blockdev.Collector, error)
	for _, sys := range []struct {
		name  string
		build builder
	}{{nameStegHide, buildJournalC2}, {nameStegHideStar, buildJournalC1}} {
		plain, _, colP, err := sys.build(s, false, s.Seed+21)
		if err != nil {
			return nil, err
		}
		upsPlain, wpuPlain, err := measureJournal(plain, colP, s, updates, s.Seed+22)
		if err != nil {
			return nil, err
		}
		journaled, vol, colJ, err := sys.build(s, true, s.Seed+21)
		if err != nil {
			return nil, err
		}
		upsJ, wpuJ, err := measureJournal(journaled, colJ, s, updates, s.Seed+22)
		if err != nil {
			return nil, err
		}

		// Definition 1 with the ring in the observed stream: idle
		// (dummy-only) vs active write-address distributions.
		writesOf := func() []uint64 {
			var out []uint64
			for _, e := range blockdev.ExpandEvents(colJ.Events()) {
				if e.Op == blockdev.OpWrite && e.Block >= 1 {
					out = append(out, e.Block)
				}
			}
			return out
		}
		colJ.Reset()
		for i := 0; i < updates; i++ {
			if _, err := journaled.dummy(1); err != nil {
				return nil, err
			}
		}
		idle := writesOf()
		colJ.Reset()
		rng := prng.NewFromUint64(s.Seed + 23)
		for i := 0; i < updates; i++ {
			if err := journaled.update(rng.Uint64n(s.UpdateFileBlocks)); err != nil {
				return nil, err
			}
			// The same sync cadence a live system runs: it drains the
			// relocation limbo, and its writes are part of the stream.
			if (i+1)%64 == 0 {
				if err := journaled.sync(); err != nil {
					return nil, err
				}
			}
		}
		active := writesOf()
		verdict, err := attack.CompareStreams(idle, active, vol.NumBlocks(), 12)
		if err != nil {
			return nil, err
		}
		decision := "cannot distinguish"
		if verdict.Detected {
			decision = "HIDDEN ACTIVITY DETECTED"
		}
		overhead := (upsPlain - upsJ) / upsPlain * 100
		t.AddRow(sys.name,
			fmt.Sprintf("%.0f", upsPlain),
			fmt.Sprintf("%.0f", upsJ),
			fmt.Sprintf("%+.1f%%", overhead),
			fmt.Sprintf("%.2f", wpuPlain),
			fmt.Sprintf("%.2f", wpuJ),
			fmt.Sprintf("%.4f", verdict.PValue),
			decision)
	}
	t.Note("%d random single-block updates at %d-byte blocks, save every 64; journal ring 256 slots; Def-1 streams include ring writes", updates, journalBS)
	return t, nil
}
