package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"steghide"
	"steghide/internal/journal"
	"steghide/internal/oblivious"
	"steghide/internal/prng"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// Probes time one layer alone, on scratch volumes beside the rig, so
// the traced run can split a facade call's self time by what each
// layer costs per block or per append. A probe whose layer the
// workload never enters is skipped and its metric stays 0 — the trace
// must show idle layers as idle.

// probeIters is the repetition count of the cheap probes at the
// declared run length; shorter runs (the smoke test) scale it down.
const (
	probeIters   = 4096
	probeSeconds = 10
)

// probeResult carries the probe metrics and what attribution needs.
type probeResult struct {
	iters            int
	metrics          map[string]float64
	notes            []string
	localWriteFileMs float64 // wire-files: traced local WriteFile median
}

func runProbes(ctx context.Context, cfg config, r *rig) (*probeResult, error) {
	pr := &probeResult{
		iters:   min(max(int(probeIters*cfg.seconds/probeSeconds), 64), probeIters),
		metrics: map[string]float64{},
	}
	steps := []func(context.Context, *probeResult) error{probeSealer, probeStegfs, probeSched}
	if r.stack.Volume().JournalBlocks() > 0 {
		steps = append(steps, probeJournal)
	}
	if cfg.workload == wlObliviousReads {
		steps = append(steps, probeStore)
	}
	for _, step := range steps {
		if err := step(ctx, pr); err != nil {
			return nil, err
		}
	}
	if cfg.workload == wlWireFiles {
		if err := probeWire(ctx, cfg, r, pr); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// usPer times n repetitions of f and returns microseconds per
// repetition.
func usPer(n int, f func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / 1e3 / float64(n), nil
}

// probeSealer: Seal, Open and SealMany on 4 KiB blocks.
func probeSealer(_ context.Context, pr *probeResult) error {
	s, err := sealer.New(sealer.DeriveKey([]byte("bench"), "probe"), devBlockSize)
	if err != nil {
		return err
	}
	const batch = 64
	rng := prng.NewFromUint64(1)
	datas := steghide.AllocBlocks(batch, s.DataSize())
	raws := steghide.AllocBlocks(batch, devBlockSize)
	for _, d := range datas {
		rng.Read(d) //nolint:errcheck // prng reads cannot fail
	}
	iv := rng.Bytes(sealer.IVSize)
	m := pr.metrics
	if m["sealer.seal_us_per_block"], err = usPer(pr.iters, func(i int) error {
		return s.Seal(raws[i%batch], iv, datas[i%batch])
	}); err != nil {
		return err
	}
	if m["sealer.open_us_per_block"], err = usPer(pr.iters, func(i int) error {
		return s.Open(datas[i%batch], raws[i%batch])
	}); err != nil {
		return err
	}
	nextIV := func(iv []byte) { rng.Read(iv) } //nolint:errcheck // prng reads cannot fail
	many, err := usPer(max(pr.iters/batch, 1), func(int) error { return s.SealMany(raws, nextIV, datas) })
	m["sealer.seal_many_us_per_block"] = many / batch
	return err
}

// scratchVolume formats a small Mem volume with a cheap KDF.
func scratchVolume(blocks, journalBlocks uint64) (*stegfs.Volume, error) {
	return stegfs.Format(steghide.NewMemDevice(devBlockSize, blocks),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("bench-probe"), JournalBlocks: journalBlocks})
}

// probeJournal: alternating AppendDummy/AppendReloc on a scratch ring.
func probeJournal(_ context.Context, pr *probeResult) error {
	vol, err := scratchVolume(1024, 256)
	if err != nil {
		return err
	}
	j, err := journal.Open(vol, sealer.DeriveKey([]byte("bench"), "probe-journal"))
	if err != nil {
		return err
	}
	pr.metrics["journal.append_probe_us"], err = usPer(pr.iters, func(i int) error {
		if i%2 == 0 {
			return j.AppendDummy()
		}
		return j.AppendReloc(uint64(300+i%32), uint64(400+i%64), uint64(500+i%64))
	})
	return err
}

// probeStegfs: a bare-volume file, in-place policy, 256 KiB per call.
func probeStegfs(_ context.Context, pr *probeResult) error {
	vol, err := scratchVolume(2048, 0)
	if err != nil {
		return err
	}
	src := stegfs.NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(2))
	f, err := stegfs.CreateFile(vol, stegfs.DeriveFAK("probe", "/probe", vol), "/probe", src)
	if err != nil {
		return err
	}
	data := prng.NewFromUint64(3).Bytes(fileBytes)
	policy := stegfs.InPlacePolicy{Vol: vol}
	if _, err := f.WriteAt(data, 0, policy); err != nil {
		return err
	}
	reps := max(pr.iters/16, 4)
	wr, err := usPer(reps, func(int) error { _, err := f.WriteAt(data, 0, policy); return err })
	if err != nil {
		return err
	}
	rd, err := usPer(reps, func(int) error { _, err := f.ReadAt(data, 0); return err })
	pr.metrics["stegfs.write_probe_mb_per_s"] = fileBytes / wr // bytes per us = MB/s
	pr.metrics["stegfs.read_probe_mb_per_s"] = fileBytes / rd
	return err
}

// probeSched: single-block writes through a session, first one
// session alone, then two at once — the scheduler's cost per Figure-6
// update and what a second session adds.
func probeSched(ctx context.Context, pr *probeResult) error {
	stack, err := steghide.Mount(steghide.NewMemDevice(devBlockSize, 4096),
		steghide.WithFormat(steghide.FormatOptions{KDFIterations: 4, FillSeed: []byte("bench-probe")}),
		steghide.WithSeed([]byte("bench-probe-agent")))
	if err != nil {
		return err
	}
	defer stack.Close() //nolint:errcheck // scratch stack
	payload := stack.Volume().PayloadSize()
	const blocks = 64
	chunk := prng.NewFromUint64(4).Bytes(payload)
	var handles []steghide.WriteHandle
	for u := 0; u < 2; u++ {
		fsys, err := stack.Login(fmt.Sprintf("probe%d", u), "probe")
		if err != nil {
			return err
		}
		if err := fsys.CreateDummy(ctx, "/cover", 1024); err != nil {
			return err
		}
		if err := steghide.WriteFile(ctx, fsys, "/f", make([]byte, blocks*payload)); err != nil {
			return err
		}
		h, err := fsys.OpenWrite(ctx, "/f")
		if err != nil {
			return err
		}
		handles = append(handles, h)
	}
	write := func(h steghide.WriteHandle) func(int) error {
		return func(i int) error { _, err := h.WriteAt(chunk, int64(i%blocks*payload)); return err }
	}
	one, err := usPer(pr.iters, write(handles[0]))
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	both := make([]float64, 2)
	errs := make([]error, 2)
	for u := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			both[u], errs[u] = usPer(pr.iters, write(handles[u]))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	two := (both[0] + both[1]) / 2
	pr.metrics["sched.update_probe_us"] = one
	pr.metrics["sched.update_probe_2c_us"] = two
	pr.metrics["sched.contention_ratio"] = two / one
	return nil
}

// probeStore: a bare oblivious store of the workload's geometry,
// filled with the workload's working set, then read at random; the
// figure is amortised over the reshuffles the reads trigger (at full
// length 1024 gets: one whole cycle of the last level).
func probeStore(_ context.Context, pr *probeResult) error {
	s, err := oblivious.New(oblivious.Config{
		Dev:          steghide.NewMemDevice(devBlockSize+64, oblivious.Footprint(obliBuffer, obliLevels)),
		Key:          sealer.DeriveKey([]byte("bench"), "probe-store"),
		BufferBlocks: obliBuffer,
		Levels:       obliLevels,
		RNG:          prng.NewFromUint64(5),
	})
	if err != nil {
		return err
	}
	const set = obliFiles * obliFileBlocks
	val := make([]byte, s.ValueSize())
	for i := 0; i < set; i++ {
		if err := s.Put(oblivious.BlockID{File: 1, Index: uint64(i)}, val); err != nil {
			return err
		}
	}
	rng := prng.NewFromUint64(6)
	pr.metrics["oblivious.store_probe_us_per_get"], err = usPer(pr.iters/4, func(int) error {
		id := oblivious.BlockID{File: 1, Index: rng.Uint64n(set)}
		// A hit promotes the block to the buffer, so the gets alone
		// drive the flush and dump schedule.
		if _, ok, err := s.Get(id); err != nil || !ok {
			return fmt.Errorf("store probe: get %v: found=%v err=%v", id, ok, err)
		}
		return nil
	})
	return err
}

// probeWire: the round trip of a metadata-only call the device never
// sees, and the same mix traced on the same stack shape (two logins,
// same cover, same E) with the sessions in-process — the wire's
// overhead per WriteFile is the difference of the two medians.
func probeWire(ctx context.Context, cfg config, r *rig, pr *probeResult) error {
	c := r.clients[0]
	rtts := make([]int64, 0, 1000)
	dirty := 0 // calls during which the device moved (the daemon's tick, or the call is not metadata-only)
	for i := 0; i < cap(rtts); i++ {
		before := r.dev.snapshot()
		start := time.Now()
		if _, err := c.fs.List(ctx); err != nil {
			return err
		}
		rtts = append(rtts, int64(time.Since(start)))
		if d := r.dev.snapshot().sub(before); d.readCalls+d.writeCalls > 0 {
			dirty++
		}
	}
	if dirty > len(rtts)/100 {
		pr.notes = append(pr.notes, fmt.Sprintf("wire.rtt probe: the device moved during %d of %d calls, not a pure round trip", dirty, len(rtts)))
	}
	slices.Sort(rtts)
	pr.metrics["wire.rtt_p50_us"] = percentile(rtts, 50) / 1e3

	tr := newTracer()
	inProcess := shapes[wlWireFiles]
	inProcess.wire = false
	local, err := buildRig(ctx, wlWireFiles, inProcess, cfg.seed, tr, false)
	if err != nil {
		return err
	}
	defer local.close() //nolint:errcheck // scratch rig
	tr.enabled.Store(true)
	n := max(int(nominalOpsPerS[wlWireFiles]*cfg.seconds*refShare), 10)
	var writes []int64
	for _, o := range local.drive(ctx, 1, forOps(n)) {
		if !o.ok {
			return fmt.Errorf("wire probe: local %s failed", opKindNames[o.kind])
		}
		if o.kind == opWriteFile {
			writes = append(writes, o.ns)
		}
	}
	slices.Sort(writes)
	pr.localWriteFileMs = percentile(writes, 50) / 1e6
	return nil
}
