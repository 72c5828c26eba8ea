// Package sched is the per-volume update scheduler: the one component
// that owns the observable block-update stream of the paper's §4
// constructions when many sessions drive an agent concurrently.
//
// The security argument (Definition 1, §3.2.4) is a property of the
// emitted stream — every write the attacker sees must land on a
// uniformly random block — not of which client requested each element.
// That is exactly what makes the stream mergeable: real-update intents
// from any number of sessions and dummy-update intents from the idle
// daemon all funnel into one Figure-6 draw loop, and the interleaving
// chosen by the scheduler is invisible to the attacker because every
// element of the stream is identically distributed by construction.
//
// Division of labour:
//
//   - The Space (construction-specific: the data/dummy bitmap of
//     Construction 1, the disclosed-block registry of Construction 2)
//     serializes the *decisions*: uniform draws, the data/dummy
//     partition, and relocation bookkeeping. Space methods are atomic
//     and memory-only, so the serialized section is tiny.
//   - The Scheduler performs the *I/O*: reads, seals/reseals and
//     writes run outside the Space's lock, guarded by sharded
//     per-block locks (BlockLocks), so the expensive AES/SHA work of
//     concurrent updates overlaps on different blocks.
//
// Two rules make the concurrency safe without a global mutex:
//
//  1. Relocation bookkeeping commits in two phases: the target leaves
//     the dummy pool at draw time (so no concurrent draw can pick it),
//     but the source block only becomes a dummy after the payload
//     write succeeds. A failed write aborts back to the pre-draw
//     partition.
//  2. Dummy updates re-classify their target under the block's I/O
//     lock (Space.Classify) immediately before acting, so a block that
//     changed role between draw and execution is resealed under its
//     current key — or skipped if it is mid-operation — never
//     clobbered with stale assumptions.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"steghide/internal/blockdev"
	"steghide/internal/mempool"
	"steghide/internal/obs"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// ErrNoTarget reports that repeated dummy draws found only blocks that
// are mid-operation (pending classification) and therefore unusable.
var ErrNoTarget = errors.New("sched: only mid-operation blocks visible to the dummy draw")

// Kind classifies one draw of the Figure-6 loop.
type Kind uint8

const (
	// Redraw marks an unusable draw (e.g. a mid-operation block); the
	// iteration is counted and the loop draws again.
	Redraw Kind = iota
	// Self marks a draw that hit the updated block itself: update in
	// place.
	Self
	// Relocate marks a draw that hit a relocatable dummy block: the
	// data moves there. The Space has already withdrawn the target
	// from the dummy pool; CommitRelocate/AbortRelocate finish or
	// revert the swap.
	Relocate
	// Camouflage marks a draw that hit another occupied block: issue a
	// dummy update on it and draw again.
	Camouflage
)

// Action is what a dummy update on a block must do, decided by
// Space.Classify under the block's I/O lock at execution time.
type Action uint8

const (
	// ActSkip marks a block that cannot be dummy-updated right now
	// (mid-operation); the scheduler does no I/O on it.
	ActSkip Action = iota
	// ActReseal re-encrypts the block under the sealer Classify
	// returned: decrypt, fresh IV, re-encrypt, write back.
	ActReseal
	// ActRefill overwrites the block with fresh random bytes — the
	// dummy update for blocks whose plaintext is meaningless (dummy
	// file content).
	ActRefill
)

// Target is one committed draw of the Figure-6 loop.
type Target struct {
	// Loc is the drawn block (meaningful unless Kind is Redraw).
	Loc uint64
	// Kind says how the scheduler must act on the draw.
	Kind Kind
}

// Space is the construction-specific state the scheduler draws from:
// the data/dummy partition and, for Construction 2, the ownership
// registry. All methods must be atomic (implementations serialize
// internally) and must not perform device I/O.
type Space interface {
	// DrawUpdate draws the next Figure-6 target for a data update of
	// block loc. When the draw lands on a relocatable dummy block the
	// Space atomically withdraws it from the dummy pool (first phase
	// of the relocation commit) before returning Kind Relocate.
	DrawUpdate(loc uint64) (Target, error)
	// CommitRelocate finishes a relocation after the payload write
	// succeeded: oldLoc joins the dummy pool, newLoc is recorded as
	// the data block (sealed under seal).
	CommitRelocate(oldLoc, newLoc uint64, seal *sealer.Sealer)
	// AbortRelocate reverts a relocation whose payload write failed:
	// newLoc returns to the dummy pool, oldLoc keeps the data.
	AbortRelocate(oldLoc, newLoc uint64)
	// DrawDummy draws one idle-time dummy-update target, uniform over
	// the space.
	DrawDummy() (uint64, error)
	// DrawDummyBatch fills locs with up to len(locs) dummy-update
	// targets, drawn exactly as DrawDummy draws them, and returns how
	// many it produced.
	DrawDummyBatch(locs []uint64) (int, error)
	// Classify decides what a dummy update on loc must do right now.
	// The scheduler calls it while holding loc's I/O lock, so the
	// answer cannot go stale before the I/O lands.
	Classify(loc uint64) (Action, *sealer.Sealer)
}

// IntentLog is the durability plane's hook into the update stream,
// implemented by the journal adapters in internal/steghide. The
// contract that keeps the stream deniable: the scheduler calls exactly
// one of these per emitted stream element — BeginReloc before a
// relocation's payload write, DummyIntent for everything else — so
// ring traffic is one slot write per element whatever the element is.
type IntentLog interface {
	// BeginReloc durably records the relocation intent before the
	// payload write lands on newLoc.
	BeginReloc(oldLoc, newLoc uint64) error
	// DummyIntent durably emits n filler records, one per in-place,
	// camouflage or dummy update about to be issued.
	DummyIntent(n int) error
}

// Scheduler owns a volume's update stream. It is safe for concurrent
// use by any number of sessions plus the dummy-traffic daemon.
type Scheduler struct {
	vol     *stegfs.Volume
	dev     blockdev.Device
	space   Space
	locks   *BlockLocks
	intents IntentLog // nil when the volume is not journaled

	pipe   *sealer.Pipeline // nil → serial bursts (the default)
	bursts sync.Pool        // *burstScratch — per-burst buffers

	// Stream counters are obs.Counter so a registry can export the
	// same atomics Stats reads — one source of truth, no second copy.
	// They count regardless of whether a registry is attached (the
	// cost is the identical atomic add as before).
	dataUpdates  obs.Counter
	iterations   obs.Counter
	relocations  obs.Counter
	inPlace      obs.Counter
	camouflage   obs.Counter
	dummyUpdates obs.Counter

	metrics *metricsState // nil → no latency/shape instrumentation
}

// metricsState is the nil-gated extra instrumentation a registry
// attaches: latency and shape histograms plus the shared counters the
// per-burst async rings report into. Everything here describes the
// observable stream only — timings and counts of updates the attacker
// already sees — never which updates were real (see DESIGN.md,
// "Observability plane").
type metricsState struct {
	updateSeconds  *obs.Histogram // data-update draw-loop latency
	updateIters    *obs.Histogram // Figure-6 iterations per data update
	burstSeconds   *obs.Histogram // dummy-burst latency
	asyncSubmits   *obs.Counter
	asyncCompletes *obs.Counter
	asyncDepth     *obs.Gauge

	reg    *obs.Registry // kept so EnablePipeline can instrument late
	volume string
}

// burstScratch carries every buffer one dummy burst needs — target
// locations, the lock shards held, per-target sealers, the block slab
// and pre-drawn IVs — the bytes bump-carved from one arena that grows
// to the burst high-water mark and is then reused. Scratch structs are
// pooled on the Scheduler because bursts can run concurrently (daemon
// ticks and explicit calls); each burst owns one exclusively.
type burstScratch struct {
	arena  mempool.Arena
	locs   []uint64
	shards []uint64
	seals  []*sealer.Sealer // per eligible target; nil marks a refill
	raws   [][]byte

	// The burst's reseal targets compacted in eligible order — the
	// lanes sealer.ResealLanes takes, each under its own file's key.
	laneSeals []*sealer.Sealer
	laneRaws  [][]byte
}

func (s *Scheduler) getBurst() *burstScratch {
	b, _ := s.bursts.Get().(*burstScratch)
	if b == nil {
		b = new(burstScratch)
	}
	b.arena.Reset()
	return b
}

func (s *Scheduler) putBurst(b *burstScratch) { s.bursts.Put(b) }

// Stats is a snapshot of the scheduler's counters; the field meanings
// match steghide.UpdateStats.
type Stats struct {
	DataUpdates  uint64
	Iterations   uint64
	Relocations  uint64
	InPlace      uint64
	Camouflage   uint64
	DummyUpdates uint64
}

// New builds a scheduler for vol over space and installs its lock map
// as the volume's BlockLocker, so file-layer writes (growth, header
// and pointer saves) serialize with the scheduler's own I/O per block.
func New(vol *stegfs.Volume, space Space) *Scheduler {
	s := &Scheduler{
		vol:   vol,
		dev:   vol.Device(),
		space: space,
		locks: NewBlockLocks(0),
	}
	vol.SetBlockLocker(s.locks)
	return s
}

// Locks exposes the scheduler's per-block lock map.
func (s *Scheduler) Locks() *BlockLocks { return s.locks }

// SetIntentLog installs the journal hooks. Install before concurrent
// use; a nil log (the default) emits no ring traffic.
func (s *Scheduler) SetIntentLog(il IntentLog) { s.intents = il }

// EnablePipeline switches dummy bursts to the staged pipeline: reads
// and writes flow through a one-worker FIFO ring over the device while
// the reseal lanes fan out over a sealer.Pipeline of the given width
// (<= 0 selects GOMAXPROCS). The observable stream — RNG
// draws, IVs, and the order blocks hit the device — is bit-identical
// to the serial path; see DummyUpdateBurst. Install before concurrent
// use.
func (s *Scheduler) EnablePipeline(workers int) {
	s.pipe = sealer.NewPipeline(workers)
	if s.metrics != nil {
		s.instrumentPipe(s.metrics.reg, s.metrics.volume)
	}
}

// Pipelined reports whether bursts run the staged pipeline.
func (s *Scheduler) Pipelined() bool { return s.pipe != nil }

// EnableMetrics exports the scheduler's stream counters through reg
// and attaches latency/shape histograms to the update paths. Like
// EnablePipeline, install before concurrent use. Every series is
// labeled by volume name only; block addresses, pathnames and the
// real-vs-dummy split of individual elements never reach the
// registry.
func (s *Scheduler) EnableMetrics(reg *obs.Registry, volume string) {
	l := []string{"volume", volume}
	reg.RegisterCounter("steghide_sched_data_updates_total",
		"data updates emitted on the observable stream", &s.dataUpdates, l...)
	reg.RegisterCounter("steghide_sched_iterations_total",
		"Figure-6 draw-loop iterations across all data updates", &s.iterations, l...)
	reg.RegisterCounter("steghide_sched_relocations_total",
		"data updates that relocated to a drawn dummy block", &s.relocations, l...)
	reg.RegisterCounter("steghide_sched_in_place_total",
		"data updates whose draw hit the block itself", &s.inPlace, l...)
	reg.RegisterCounter("steghide_sched_camouflage_total",
		"camouflage dummy updates issued by the draw loop", &s.camouflage, l...)
	reg.RegisterCounter("steghide_sched_dummy_updates_total",
		"idle-time dummy updates emitted", &s.dummyUpdates, l...)
	s.metrics = &metricsState{
		updateSeconds: reg.Histogram("steghide_sched_update_seconds",
			"data-update draw-loop latency", obs.LatencyBuckets, l...),
		updateIters: reg.Histogram("steghide_sched_update_iterations",
			"Figure-6 iterations per data update", obs.IterationBuckets, l...),
		burstSeconds: reg.Histogram("steghide_sched_burst_seconds",
			"dummy-burst latency", obs.LatencyBuckets, l...),
		asyncSubmits: reg.Counter("steghide_async_submits_total",
			"batched ops submitted to per-burst async device rings", l...),
		asyncCompletes: reg.Counter("steghide_async_completes_total",
			"batched ops completed by per-burst async device rings", l...),
		asyncDepth: reg.Gauge("steghide_async_queue_depth",
			"ops in flight on per-burst async device rings", l...),
		reg:    reg,
		volume: volume,
	}
	if s.pipe != nil {
		s.instrumentPipe(reg, volume)
	}
}

// instrumentPipe wires the staged seal pipeline's throughput counters
// into reg; split out so EnablePipeline-after-EnableMetrics still gets
// covered.
func (s *Scheduler) instrumentPipe(reg *obs.Registry, volume string) {
	l := []string{"volume", volume}
	s.pipe.Instrument(
		reg.Counter("steghide_seal_batches_total",
			"batches fanned out over the seal pipeline", l...),
		reg.Counter("steghide_seal_blocks_total",
			"blocks sealed/resealed through the pipeline", l...),
		reg.Gauge("steghide_seal_inflight",
			"blocks currently inside the seal pipeline", l...),
	)
}

// observeUpdate records one successful data update's latency and
// iteration count; nil-safe and free when no registry is attached.
func (s *Scheduler) observeUpdate(start time.Time, iters int) {
	m := s.metrics
	if m == nil {
		return
	}
	m.updateSeconds.Observe(time.Since(start).Seconds())
	m.updateIters.Observe(float64(iters))
}

// Stats returns a snapshot of the counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		DataUpdates:  s.dataUpdates.Load(),
		Iterations:   s.iterations.Load(),
		Relocations:  s.relocations.Load(),
		InPlace:      s.inPlace.Load(),
		Camouflage:   s.camouflage.Load(),
		DummyUpdates: s.dummyUpdates.Load(),
	}
}

// ResetStats zeroes the counters. A registry exporting them sees the
// reset as a counter restart, which Prometheus-style scrapers already
// handle (it looks like a process restart).
func (s *Scheduler) ResetStats() {
	s.dataUpdates.Reset()
	s.iterations.Reset()
	s.relocations.Reset()
	s.inPlace.Reset()
	s.camouflage.Reset()
	s.dummyUpdates.Reset()
}

// DataSeq returns a monotonically increasing count of data updates —
// the signal the adaptive daemon watches to fill only idle gaps.
func (s *Scheduler) DataSeq() uint64 { return s.dataUpdates.Load() }

// getBuf borrows a single-block scratch buffer from the memory plane.
func (s *Scheduler) getBuf() []byte  { return mempool.Get(s.vol.BlockSize()) }
func (s *Scheduler) putBuf(b []byte) { mempool.Recycle(b) }

// Update runs the Figure-6 data-update algorithm for block loc: draw a
// uniformly random block B2; if B2 is loc itself update in place; if
// B2 is a dummy block relocate the data there; otherwise issue a
// camouflage dummy update on B2 and redraw. It returns the block the
// data finally landed on. sealed is the block's new content already
// sealed under seal (the stegfs.UpdatePolicy contract): placement never
// changes a sealed block's bytes, so sealing happens once, ahead of the
// loop, and the loop is draws and I/O only. Concurrent calls interleave
// safely: draws and partition bookkeeping serialize inside the Space,
// while the read/write work of different blocks overlaps.
func (s *Scheduler) Update(loc uint64, seal *sealer.Sealer, sealed []byte) (uint64, error) {
	return s.UpdateCtx(context.Background(), loc, seal, sealed)
}

// UpdateCtx is Update with cooperative cancellation: the context is
// consulted before every draw of the Figure-6 loop — the scheduler's
// wait point, where an update can spin arbitrarily long hunting for a
// dummy block on a crowded volume. A cancelled context aborts the
// update before the next draw; the iteration in flight always runs to
// completion, because a committed draw's two-phase bookkeeping
// (relocation withdraw/commit) must never be abandoned half-way. No
// I/O lands after the abort, so the block being updated keeps its
// pre-call content.
func (s *Scheduler) UpdateCtx(ctx context.Context, loc uint64, seal *sealer.Sealer, sealed []byte) (uint64, error) {
	if len(sealed) != s.vol.BlockSize() {
		return 0, fmt.Errorf("sched: sealed block of %d bytes, want %d", len(sealed), s.vol.BlockSize())
	}
	var start time.Time
	if s.metrics != nil {
		start = time.Now()
	}
	iters := 0
	counted := false
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		t, err := s.space.DrawUpdate(loc)
		if err != nil {
			return 0, err
		}
		// Count the update only once a draw succeeded: an update that
		// fails outright (no dummy space) emits no I/O, and counting
		// it would advance DataSeq and wrongly tell the adaptive
		// daemon the stream is busy while it is in fact silent.
		if !counted {
			s.dataUpdates.Add(1)
			counted = true
		}
		s.iterations.Add(1)
		iters++
		switch t.Kind {
		case Redraw:
			continue

		case Self:
			// Update in place: read in B1, write the block re-encrypted
			// under its new IV.
			// In-place rewrites commit atomically with the block write
			// itself (the header keeps pointing at loc), so the ring
			// element is a filler — emitted all the same, to keep one
			// slot write per stream element.
			if s.intents != nil {
				if err := s.intents.DummyIntent(1); err != nil {
					return 0, err
				}
			}
			s.locks.LockBlock(loc)
			raw := s.getBuf()
			err := s.dev.ReadBlock(loc, raw)
			if err == nil {
				err = s.dev.WriteBlock(loc, sealed)
			}
			s.putBuf(raw)
			s.locks.UnlockBlock(loc)
			if err != nil {
				return 0, err
			}
			s.inPlace.Add(1)
			s.observeUpdate(start, iters)
			return loc, nil

		case Relocate:
			// B2 is a dummy block: the data moves there; the old
			// location joins the dummy pool once the write succeeded.
			// The intent record must be durable before the payload
			// write, so recovery can find both endpoints.
			if s.intents != nil {
				if err := s.intents.BeginReloc(loc, t.Loc); err != nil {
					s.space.AbortRelocate(loc, t.Loc)
					return 0, err
				}
			}
			unlock := s.locks.Lock2(loc, t.Loc)
			raw := s.getBuf()
			err := s.dev.ReadBlock(loc, raw)
			if err == nil {
				err = s.dev.WriteBlock(t.Loc, sealed)
			}
			if err != nil {
				s.putBuf(raw)
				unlock()
				s.space.AbortRelocate(loc, t.Loc)
				return 0, err
			}
			s.space.CommitRelocate(loc, t.Loc, seal)
			s.putBuf(raw)
			unlock()
			s.relocations.Add(1)
			s.observeUpdate(start, iters)
			return t.Loc, nil

		case Camouflage:
			// B2 holds something else: camouflage dummy update, redraw.
			done, err := s.dummyOn(t.Loc)
			if err != nil {
				return 0, err
			}
			if done {
				s.camouflage.Add(1)
			}
		}
	}
}

// dummyOn performs one dummy update on loc under its I/O lock. The
// target is re-classified at execution time, so role changes between
// draw and execution (relocations, allocations) are honoured. It
// reports whether any I/O was issued.
func (s *Scheduler) dummyOn(loc uint64) (bool, error) {
	s.locks.LockBlock(loc)
	defer s.locks.UnlockBlock(loc)
	act, seal := s.space.Classify(loc)
	if act == ActSkip {
		return false, nil
	}
	if s.intents != nil {
		if err := s.intents.DummyIntent(1); err != nil {
			return false, err
		}
	}
	raw := s.getBuf()
	defer s.putBuf(raw)
	// Read first either way, so the observable I/O of a refill matches
	// a reseal: one read, one write.
	if err := s.dev.ReadBlock(loc, raw); err != nil {
		return false, err
	}
	switch act {
	case ActReseal:
		var iv [sealer.IVSize]byte
		s.vol.NextIV(iv[:])
		if err := seal.Reseal(raw, iv[:], nil); err != nil {
			return false, err
		}
	case ActRefill:
		s.vol.FillRandom(raw)
	}
	if err := s.dev.WriteBlock(loc, raw); err != nil {
		return false, err
	}
	return true, nil
}

// DummyUpdate issues one idle-time dummy update on a uniformly random
// block of the space.
func (s *Scheduler) DummyUpdate() error {
	for try := 0; try < 64; try++ {
		loc, err := s.space.DrawDummy()
		if err != nil {
			return err
		}
		done, err := s.dummyOn(loc)
		if err != nil {
			return err
		}
		if done {
			s.dummyUpdates.Add(1)
			return nil
		}
	}
	return ErrNoTarget
}

// DummyUpdateBurst issues up to n dummy updates in one batched
// read-modify-write cycle: two scattered device batches instead of 2n
// single-block calls. Targets are drawn exactly as DummyUpdate draws
// them, so the observable stream keeps the same distribution; blocks
// whose classification went stale between draw and execution are
// skipped. It returns how many updates were issued.
func (s *Scheduler) DummyUpdateBurst(n int) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	b := s.getBurst()
	defer s.putBurst(b)
	if cap(b.locs) < n {
		b.locs = make([]uint64, n)
	}
	locs := b.locs[:n]
	m, err := s.space.DrawDummyBatch(locs)
	if err != nil {
		return 0, err
	}
	if m == 0 {
		return 0, ErrNoTarget
	}
	locs = locs[:m]

	b.shards = s.locks.LockShards(b.shards, locs)
	defer s.locks.UnlockShards(b.shards)

	// Classify every target under the locks, dropping stale ones.
	elig := locs[:0]
	seals := b.seals[:0]
	for _, loc := range locs {
		act, seal := s.space.Classify(loc)
		if act == ActSkip {
			continue
		}
		if act == ActRefill {
			seal = nil
		}
		elig = append(elig, loc)
		seals = append(seals, seal)
	}
	b.seals = seals // keep the grown backing for the next burst
	if len(elig) == 0 {
		return 0, nil
	}
	if s.intents != nil {
		if err := s.intents.DummyIntent(len(elig)); err != nil {
			return 0, err
		}
	}

	var start time.Time
	if s.metrics != nil {
		start = time.Now()
	}
	if s.pipe != nil {
		if err := s.burstPipelined(b, elig, seals); err != nil {
			return 0, err
		}
	} else if err := s.burstSerial(b, elig, seals); err != nil {
		return 0, err
	}
	if m := s.metrics; m != nil {
		m.burstSeconds.Observe(time.Since(start).Seconds())
	}
	s.dummyUpdates.Add(uint64(len(elig)))
	return len(elig), nil
}

// planReseals carves the burst's block slab and compacts its reseal
// targets, in eligible order, into the scratch's lane lists, drawing
// their IVs in that order. The IV of a block does not depend on its
// content, so this runs before any I/O in both execute stages.
func (s *Scheduler) planReseals(b *burstScratch, seals []*sealer.Sealer) (raws [][]byte, ivs []byte) {
	b.raws = b.arena.Blocks(b.raws[:0], len(seals), s.vol.BlockSize())
	b.laneSeals, b.laneRaws = b.laneSeals[:0], b.laneRaws[:0]
	for i, seal := range seals {
		if seal != nil {
			b.laneSeals = append(b.laneSeals, seal)
			b.laneRaws = append(b.laneRaws, b.raws[i])
		}
	}
	ivs = b.arena.Bytes(len(b.laneSeals) * sealer.IVSize)
	for i := range b.laneSeals {
		s.vol.NextIV(ivs[i*sealer.IVSize : (i+1)*sealer.IVSize])
	}
	return b.raws, ivs
}

// refill overwrites the refill targets among raws, in order, with
// fresh filler; it reports how many blocks were reseal targets instead.
func (s *Scheduler) refill(seals []*sealer.Sealer, raws [][]byte) (reseals int) {
	for i, seal := range seals {
		if seal != nil {
			reseals++
			continue
		}
		s.vol.FillRandom(raws[i])
	}
	return reseals
}

// burstSerial is the reference execute stage of a dummy burst: one
// scattered read of every eligible block, the refills and the reseal
// lanes, one scattered write-back. The pipelined stage below is
// defined as observably equivalent to this code.
func (s *Scheduler) burstSerial(b *burstScratch, elig []uint64, seals []*sealer.Sealer) error {
	raws, ivs := s.planReseals(b, seals)
	if err := blockdev.ReadBlocksAt(s.dev, elig, raws); err != nil {
		return err
	}
	s.refill(seals, raws)
	if err := sealer.ResealLanes(b.laneSeals, b.laneRaws, ivs); err != nil {
		return err
	}
	return blockdev.WriteBlocksAt(s.dev, elig, raws)
}

// burstChunk is how many blocks ride each async submission of a
// pipelined burst: small enough that crypto on one chunk overlaps
// device I/O on its neighbours, large enough to amortize scattered-
// batch overhead.
const burstChunk = 16

// burstPipelined is the staged execute stage: crypto overlaps device
// I/O without moving a single observable byte relative to burstSerial.
//
// Three facts carry the bit-identity argument:
//
//  1. RNG order. The volume's two streams are each consumed in
//     eligible order, exactly as the serial stage consumes them: the
//     IVs of the reseal targets in planReseals, before any I/O; the
//     filler of the refill targets on this goroutine, chunk after
//     chunk. Workers draw nothing.
//  2. Device order. The ring has one worker, so ops execute strictly
//     in submission order. Every read chunk is submitted before any
//     write chunk, and chunks are submitted in eligible order, so the
//     device sees R(e_0..e_k), W(e_0..e_k) — precisely the serial
//     ReadBlocksAt/WriteBlocksAt order, and the trace records per-
//     block events in batch order either way.
//  3. Completion order. FIFO execution means the c-th completion IS
//     read chunk c, so crypto for chunk c starts exactly when its data
//     is in memory, while the ring reads ahead and retires earlier
//     writes behind it.
//
// The caller holds every eligible block's lock and has already emitted
// the burst's single intent record on the serial control path, so the
// journal's one-slot-per-element invariant is untouched.
func (s *Scheduler) burstPipelined(b *burstScratch, elig []uint64, seals []*sealer.Sealer) error {
	n := len(elig)
	raws, ivs := s.planReseals(b, seals)

	chunks := (n + burstChunk - 1) / burstChunk
	ring := blockdev.NewAsync(s.dev, 1, 2*chunks)
	defer ring.Close()
	if m := s.metrics; m != nil {
		// Per-burst rings are ephemeral; they report into the
		// scheduler's shared series so queue depth and throughput
		// survive the ring.
		ring.Instrument(m.asyncSubmits, m.asyncCompletes, m.asyncDepth)
	}

	// All reads up front, in eligible order (fact 2); the queue is
	// sized for the whole burst so no Submit ever blocks.
	for c := 0; c < chunks; c++ {
		lo, hi := c*burstChunk, min((c+1)*burstChunk, n)
		ring.Submit(blockdev.AsyncOp{Idx: elig[lo:hi], Bufs: raws[lo:hi]})
	}
	lane := 0 // reseal lanes of the chunks already done
	for c := 0; c < chunks; c++ {
		lo, hi := c*burstChunk, min((c+1)*burstChunk, n)
		if _, err := ring.Complete(); err != nil { // read chunk c (fact 3)
			return err
		}
		end := lane + s.refill(seals[lo:hi], raws[lo:hi])
		err := s.pipe.ResealLanes(b.laneSeals[lane:end], b.laneRaws[lane:end], ivs[lane*sealer.IVSize:end*sealer.IVSize])
		if err != nil {
			return err
		}
		lane = end
		ring.Submit(blockdev.AsyncOp{Write: true, Idx: elig[lo:hi], Bufs: raws[lo:hi]})
	}
	return ring.Drain()
}
