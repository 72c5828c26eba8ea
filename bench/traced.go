package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"steghide"
)

// A traced run (--trace 1) yields the per-layer metrics. It drives ONE
// client, so every device and connection span nests in exactly one
// facade call by time. Its passes are fixed op counts sized from
// --seconds — not fixed durations — so on the single-threaded,
// timer-free workloads (cover-burst, oblivious-reads) every count
// repeats exactly from run to run. An untraced reference pass of the
// same mix comes first: the difference is the tracing overhead.
var nominalOpsPerS = map[string]float64{
	wlLocalFiles:     1200,
	wlWireFiles:      500,
	wlObliviousReads: 500,
	wlCoverBurst:     700,
}

const (
	tracedShare = 0.5 // of nominal ops/s x seconds
	refShare    = 0.2
	warmShare   = 0.1
)

// runTraced produces the per-layer metrics.
func runTraced(ctx context.Context, cfg config, prog *progress) (*result, error) {
	tr := newTracer()
	r, err := buildRig(ctx, cfg.workload, shapes[cfg.workload], cfg.seed, tr, cfg.corrupt)
	if err != nil {
		return nil, err
	}
	defer r.close() //nolint:errcheck // files are verified below; a late close error cannot change a measurement

	// Pass lengths are whole throughput windows where they can be, so
	// on oblivious-reads the reference and the traced pass hold the
	// same number of reshuffles per operation.
	budget, w := nominalOpsPerS[cfg.workload]*cfg.seconds, windowOps[cfg.workload]
	ops := func(share float64) int {
		n := max(int(budget*share), 10)
		if n >= w {
			n -= n % w
		}
		return n
	}
	c := r.clients[0]
	prog.add(tally(r.drive(ctx, 1, forOps(ops(warmShare)))))

	// Reference pass: untraced, also the allocation sample (the
	// tracer's own span log must not count as the stack's garbage).
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	refStart := time.Now()
	refLog := r.drive(ctx, 1, forOps(ops(refShare)))
	refWall := time.Since(refStart)
	runtime.ReadMemStats(&memAfter)
	prog.add(tally(refLog))

	// Traced pass. The agent's and the cache's counters restart with
	// it; the wrappers' and the daemon's are read as deltas.
	r.resetStats()
	devBefore, wireBefore := r.dev.snapshot(), r.ln.snapshot()
	issued, skipped := r.daemonCounts()
	tr.reset()
	tr.enabled.Store(true)
	start := time.Now()
	log := r.drive(ctx, 1, forOps(ops(tracedShare)))
	wall := time.Since(start)
	tr.enabled.Store(false)
	prog.add(tally(log))
	sched, spaceN, spaceD := r.schedStats()
	dev, wire := r.dev.snapshot().sub(devBefore), r.ln.snapshot().sub(wireBefore)
	issuedAfter, skippedAfter := r.daemonCounts()

	m := map[string]float64{}
	samples := map[string]int{}
	res := &result{metrics: map[string]metric{}, samples: samples}
	n := float64(max(len(log), 1))
	W := float64(wall)
	payload := float64(c.payload)

	var userRead, userWritten, tOps float64
	byKind := map[opKind][]int64{}
	for _, o := range log {
		userRead += float64(o.userRead)
		userWritten += float64(o.userWrites)
		tOps += float64(o.ns)
		byKind[o.kind] = append(byKind[o.kind], o.ns)
	}
	for _, d := range byKind {
		slices.Sort(d)
	}

	// Probes: the cost of each layer alone, to split facade self time.
	pr, err := runProbes(ctx, cfg, r)
	if err != nil {
		return nil, err
	}
	for k, v := range pr.metrics {
		m[k] = v
	}
	res.notes = append(res.notes, pr.notes...)

	// Facade: every interface call, timed by the benchmark's FS wrapper.
	calls := &tr.calls
	var nCalls int
	var tCalls float64
	for k := range calls {
		slices.Sort(calls[k].durs)
		nCalls += len(calls[k].durs)
		tCalls += float64(calls[k].totalNs)
	}
	m["facade.calls_per_op"] = float64(nCalls) / n
	m["facade.span_ms_total"] = tCalls / 1e6
	// pct reports one percentile of sorted durations with its sample count.
	pct := func(name string, durs []int64, p, div float64) {
		m[name], samples[name] = percentile(durs, p)/div, len(durs)
	}
	opens := slices.Concat(calls[callOpenRead].durs, calls[callOpenWrite].durs)
	slices.Sort(opens)
	pct("facade.write_file_p50_ms", byKind[opWriteFile], 50, 1e6)
	pct("facade.read_file_p50_ms", byKind[opReadFile], 50, 1e6)
	pct("facade.read_file_p99_ms", byKind[opReadFile], 99, 1e6)
	pct("facade.update_block_p50_us", calls[callWriteBlock].durs, 50, 1e3)
	pct("facade.update_block_p99_us", calls[callWriteBlock].durs, 99, 1e3)
	pct("facade.open_p50_us", opens, 50, 1e3)
	pct("facade.close_save_p50_us", calls[callCloseWrite].durs, 50, 1e3)

	// Shares of the traced wall: generator (outside any operation),
	// facade (inside an operation but outside every interface call: the
	// ReadFile/WriteFile helpers' buffers and copies), and per call
	// wire, device, sealer, journal and a remainder. The remainder of
	// single-block reads on oblivious-reads is the cache; every other
	// remainder is sched + stegfs + agent glue.
	var wireNs, devIn, sealNs, journalNs, obliNs, restNs float64
	journalSelfUs := max(m["journal.append_probe_us"]-float64(dev.journalBusyNs)/1e3/float64(max(dev.journalWrites, 1)), 0)
	for k := range calls {
		a := &calls[k]
		total := float64(a.totalNs)
		var w float64
		if r.ln != nil {
			w = max(total-float64(a.serverNs), 0)
		}
		seal := (float64(a.blocksWritten)*m["sealer.seal_us_per_block"] + float64(a.blocksRead)*m["sealer.open_us_per_block"]) * 1e3
		jour := float64(a.journalWrites) * journalSelfUs * 1e3
		rest := max(total-w-float64(a.devNs)-seal-jour, 0)
		wireNs += w
		devIn += float64(a.devNs)
		sealNs += seal
		journalNs += jour
		if cfg.workload == wlObliviousReads && callKind(k) == callReadBlock {
			obliNs += rest
		} else {
			restNs += rest
		}
	}
	m["bench.generator_share"] = max(1-tOps/W, 0)
	m["facade.share"] = max(tOps-tCalls, 0) / W
	m["wire.share"] = wireNs / W
	m["blockdev.busy_share"] = devIn / W
	m["sealer.share"] = sealNs / W
	m["journal.share"] = journalNs / W
	m["oblivious.share"] = obliNs / W
	m["sched.share"] = restNs / W
	m["agent.background_share"] = float64(tr.bgDevNs) / W
	m["bench.trace_overhead"] = (W/n)/(float64(refWall)/float64(max(len(refLog), 1))) - 1

	// Wire: counted on the server side of the listener.
	m["wire.round_trips_per_op"] = float64(wire.requests) / n
	m["wire.conn_writes_per_op"] = float64(wire.writes) / n
	m["wire.bytes_per_user_byte"] = float64(wire.bytesIn+wire.bytesOut) / max(userRead+userWritten, 1)
	if r.ln != nil {
		m["wire.overhead_ms_per_write_file"] = m["facade.write_file_p50_ms"] - pr.localWriteFileMs
	}

	// Agent and scheduler: the inputs and outputs of Eq. 1.
	m["agent.known_blocks"] = spaceN
	m["agent.dummy_blocks"] = spaceD
	m["agent.daemon_issued"] = float64(issuedAfter - issued)
	m["agent.daemon_skipped"] = float64(skippedAfter - skipped)
	m["sched.data_updates"] = float64(sched.DataUpdates)
	m["sched.iterations"] = float64(sched.Iterations)
	m["sched.relocations"] = float64(sched.Relocations)
	m["sched.in_place"] = float64(sched.InPlace)
	m["sched.camouflage"] = float64(sched.Camouflage)
	m["sched.dummy_updates"] = float64(sched.DummyUpdates)
	if spaceD > 0 {
		m["sched.e_predicted"] = spaceN / spaceD
	}
	if du := m["sched.data_updates"]; du > 0 {
		m["sched.e_measured"] = m["sched.iterations"] / du
		m["sched.e_residual"] = m["sched.e_measured"] / m["sched.e_predicted"]
	}

	// Journal, stegfs and device: the counting device under Mount.
	m["journal.slot_writes"] = float64(dev.journalWrites)
	if updates := m["sched.iterations"] + m["sched.dummy_updates"]; updates > 0 {
		m["journal.slot_writes_per_update"] = float64(dev.journalWrites) / updates
	}
	m["journal.busy_ms"] = float64(dev.journalBusyNs) / 1e6
	reads := float64(calls[callReadAt].blocksRead + calls[callReadBlock].blocksRead)
	m["stegfs.read_blocks_per_user_block"] = reads / max(userRead/payload, 1)
	if cfg.workload == wlCoverBurst {
		m["stegfs.read_blocks_per_user_block"] = 0 // a burst reads cover, not user data
	}
	m["stegfs.save_blocks_written"] = float64(calls[callCloseWrite].blocksWritten + calls[callSave].blocksWritten)
	m["blockdev.read_calls"] = float64(dev.readCalls)
	m["blockdev.write_calls"] = float64(dev.writeCalls)
	m["blockdev.blocks_read"] = float64(dev.blocksRead)
	m["blockdev.blocks_written"] = float64(dev.blocksWritten)
	m["blockdev.blocks_per_call"] = float64(dev.blocksRead+dev.blocksWritten) / float64(max(dev.readCalls+dev.writeCalls, 1))
	m["blockdev.busy_ms"] = float64(dev.busyNs) / 1e6

	// Oblivious cache: the store's and the composition's own counters.
	if cache := r.stack.ObliviousCache(); cache != nil {
		st, fs := cache.Store().Stats(), cache.Stats()
		m["oblivious.gets"] = float64(st.Gets)
		m["oblivious.buffer_hits"] = float64(st.BufferHits)
		m["oblivious.hits"] = float64(st.Hits)
		m["oblivious.misses"] = float64(st.Misses)
		m["oblivious.flushes"] = float64(st.Flushes)
		m["oblivious.dumps"] = float64(st.Dumps)
		m["oblivious.retouches"] = float64(st.ReTouches)
		m["oblivious.fetches"] = float64(fs.Fetches)
		m["oblivious.decoys"] = float64(fs.Decoys)
		m["oblivious.level_reads_per_get"] = float64(st.LevelReads) / float64(max(st.Gets, 1))
		m["oblivious.shuffle_io_per_put"] = float64(st.ShuffleReads+st.ShuffleWrites) / float64(max(st.Puts, 1))
	}
	if rd := byKind[opReadBlock]; len(rd) > 0 {
		pct("oblivious.read_block_p50_us", rd, 50, 1e3)
		var sum, slow int64
		for i, d := range rd {
			sum += d
			if i >= len(rd)-max(len(rd)/100, 1) {
				slow += d
			}
		}
		m["oblivious.stall_share"] = float64(slow) / float64(sum)
	}

	// Memory: the stack's allocations over the untraced reference pass.
	refN := float64(max(len(refLog), 1))
	m["mempool.allocs_per_op"] = float64(memAfter.Mallocs-memBefore.Mallocs) / refN
	m["mempool.alloc_bytes_per_op"] = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / refN
	m["mempool.gc_cycles"] = float64(memAfter.NumGC - memBefore.NumGC)
	m["mempool.gc_pause_ms"] = float64(memAfter.PauseTotalNs-memBefore.PauseTotalNs) / 1e6

	for _, cl := range r.clients {
		prog.add(len(cl.paths), cl.verifyAll(ctx, cl.fs))
	}
	res.attempted, res.failed = prog.get()
	for _, s := range perLayer {
		res.metrics[s.Name] = metric{Value: m[s.Name], Unit: s.Unit}
	}
	res.spans, res.spansDropped = tr.export(), tr.dropped
	if tr.dropped > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d spans aggregated but not retained (log capped at %d)", tr.dropped, maxSpans))
	}
	return res, nil
}

// schedStats returns the agent's update counters and the Eq. 1
// inputs: N, the blocks a relocation draw ranges over, and D, the
// dummy blocks among them.
func (r *rig) schedStats() (steghide.UpdateStats, float64, float64) {
	if a := r.stack.Agent2(); a != nil {
		return a.Stats(), float64(a.KnownBlocks()), float64(a.DummyBlocks())
	}
	a := r.stack.Agent1()
	first, end := a.Source().SpaceBounds()
	return a.Stats(), float64(end - first), float64(a.Source().FreeCount())
}

func (r *rig) daemonCounts() (issued, skipped uint64) {
	if d := r.stack.Daemon(); d != nil {
		return d.Issued(), d.Skipped()
	}
	return 0, 0
}

// resetStats zeroes the agent's update counters and the oblivious
// cache's, so the traced pass reads them from zero.
func (r *rig) resetStats() {
	if a := r.stack.Agent2(); a != nil {
		a.ResetStats()
	} else {
		r.stack.Agent1().ResetStats()
	}
	if c := r.stack.ObliviousCache(); c != nil {
		c.ResetStats()
		c.Store().ResetStats()
	}
}
