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
//   - The Scheduler performs the *I/O*, a batch at a time: a run of
//     data updates is planned whole against the Space and then emitted
//     exactly as a dummy burst is — intents, one scattered read, the
//     reseal lanes, one scattered write — outside the Space's lock,
//     guarded by sharded per-block locks (BlockLocks), so the AES/SHA
//     work of concurrent batches overlaps on different blocks.
//
// Two rules make the concurrency safe without a global mutex:
//
//  1. Relocation bookkeeping commits in two phases: the target leaves
//     the dummy pool at draw time (so no concurrent draw can pick it),
//     but the source block only becomes a dummy after the whole batch
//     that carries the payload write landed. A failed batch aborts
//     every relocation in it back to the pre-draw partition.
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
	// CommitRelocate finishes a relocation after the batch carrying its
	// payload write landed: oldLoc joins the dummy pool, newLoc is
	// recorded as the data block (sealed under seal) of the file whose
	// header is at head.
	CommitRelocate(oldLoc, newLoc, head uint64, seal *sealer.Sealer)
	// AbortRelocate reverts a relocation whose batch failed or was
	// cancelled: newLoc returns to the dummy pool, oldLoc keeps the data.
	AbortRelocate(oldLoc, newLoc uint64)
	// DrawDummyBatch fills locs with up to len(locs) idle-time
	// dummy-update targets, each uniform over the space, and returns
	// how many it produced.
	DrawDummyBatch(locs []uint64) (int, error)
	// Classify decides what a dummy update on loc must do right now.
	// The scheduler calls it while holding loc's I/O lock, so the
	// answer cannot go stale before the I/O lands.
	Classify(loc uint64) (Action, *sealer.Sealer)
}

// IntentLog is the durability plane's hook into the update stream,
// implemented by the journal adapters in internal/steghide. The
// contract that keeps the stream deniable: the scheduler hands it every
// batch of stream elements exactly once, before any of the batch's
// block writes is issued, and the log emits exactly one ring record per
// element whatever the element is — so ring traffic carries the
// stream's cadence and nothing else.
type IntentLog interface {
	// LogStream durably records the stream elements (from[i], to[i]), in
	// order: a relocation intent where the two differ (the data at
	// from[i] is about to be written to to[i]), a filler where they are
	// equal (in-place, camouflage and idle dummy updates). A batch
	// carries at most one file's run, so every relocation in it names
	// head, the header of the file UpdateRun was given; an idle burst
	// relocates nothing and passes 0.
	LogStream(head uint64, from, to []uint64) error
}

// Scheduler owns a volume's update stream. It is safe for concurrent
// use by any number of sessions plus the dummy-traffic daemon.
type Scheduler struct {
	vol     *stegfs.Volume
	dev     blockdev.Device
	space   Space
	locks   *BlockLocks
	intents IntentLog // nil when the volume is not journaled

	// free holds idle batch scratch. A bounded list, not a sync.Pool:
	// the collector empties pools, and the first batch after every cycle
	// would re-grow a several-hundred-KiB arena by doubling, as garbage
	// and fresh large spans, for scratch a busy volume needs again at
	// once. A handful kept alive costs less than that churn.
	freeMu sync.Mutex
	free   []*batch

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
// attaches: latency and shape histograms. Everything here describes the
// observable stream only — timings and counts of updates the attacker
// already sees — never which updates were real (see DESIGN.md,
// "Observability plane").
type metricsState struct {
	updateSeconds *obs.Histogram // latency of one data-update run
	updateIters   *obs.Histogram // Figure-6 iterations per data update
	burstSeconds  *obs.Histogram // dummy-burst latency
}

// step is what the execute stage does with the block an element read
// in before it writes the element's block out.
type step uint8

const (
	// stepPayload writes the caller's sealed block; the block read in
	// is Figure 6's "read in B1" and is discarded.
	stepPayload step = iota
	// stepReseal re-encrypts the block read in under the element's
	// sealer and a fresh IV.
	stepReseal
	// stepRefill overwrites the block read in with fresh filler.
	stepRefill
)

// batch is one ordered list of stream elements — a data-update run
// with its camouflage, or a dummy burst — and every buffer executing
// it needs: the bytes bump-carved from one arena that grows to the
// high-water mark and is then reused. Batches are recycled through the
// Scheduler's free list because they can run concurrently (sessions,
// daemon ticks, explicit calls); each caller owns one exclusively.
type batch struct {
	arena mempool.Arena

	// One entry per stream element, in stream order.
	reads  []uint64         // block read in: B1 of an update, the target of a dummy update
	writes []uint64         // block written
	steps  []step           // dummy updates are planned as stepReseal and classified at execution
	seals  []*sealer.Sealer // stepReseal: the key the block is sealed under
	outs   [][]byte         // block written: the payload, or raws[i] resealed or refilled
	raws   [][]byte         // blocks read in

	// A data-update run's plan: how many draws each block took (where it
	// lands is its payload element's write).
	iters []int

	locked []uint64 // every block read or written, as LockShards takes them
	shards []uint64

	// The reseal elements compacted in stream order — the lanes
	// sealer.ResealLanes takes, each under its own file's key.
	laneSeals []*sealer.Sealer
	laneRaws  [][]byte
}

// add appends one stream element; a nil payload marks a dummy update.
func (b *batch) add(read, write uint64, payload []byte) {
	st := stepReseal
	if payload != nil {
		st = stepPayload
	}
	b.reads = append(b.reads, read)
	b.writes = append(b.writes, write)
	b.steps = append(b.steps, st)
	b.seals = append(b.seals, nil)
	b.outs = append(b.outs, payload)
}

// truncate cuts the element lists to n entries.
func (b *batch) truncate(n int) {
	b.reads, b.writes, b.steps = b.reads[:n], b.writes[:n], b.steps[:n]
	b.seals, b.outs = b.seals[:n], b.outs[:n]
}

// maxFreeBatches bounds the free list: sessions beyond it allocate a
// batch per call, which only costs them the arena's warm-up.
const maxFreeBatches = 4

func (s *Scheduler) getBatch() *batch {
	s.freeMu.Lock()
	var b *batch
	if n := len(s.free); n > 0 {
		b, s.free = s.free[n-1], s.free[:n-1]
	}
	s.freeMu.Unlock()
	if b == nil {
		b = new(batch)
	}
	b.arena.Reset()
	b.truncate(0)
	b.iters = b.iters[:0]
	return b
}

func (s *Scheduler) putBatch(b *batch) {
	// Drop the callers' payload blocks; the scratch keeps only its own.
	clear(b.outs[:cap(b.outs)])
	s.freeMu.Lock()
	if len(s.free) < maxFreeBatches {
		s.free = append(s.free, b)
	}
	s.freeMu.Unlock()
}

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

// EnableMetrics exports the scheduler's stream counters through reg
// and attaches latency/shape histograms to the update paths. Install
// before concurrent use. Every series is labeled by volume name only;
// block addresses, pathnames and the real-vs-dummy split of individual
// elements never reach the registry.
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
			"latency of one scheduler call: a run of data updates planned and executed as a batch", obs.LatencyBuckets, l...),
		updateIters: reg.Histogram("steghide_sched_update_iterations",
			"Figure-6 iterations per data update", obs.IterationBuckets, l...),
		burstSeconds: reg.Histogram("steghide_sched_burst_seconds",
			"dummy-burst latency", obs.LatencyBuckets, l...),
	}
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

// UpdateRun runs the Figure-6 data-update algorithm for a run of
// distinct blocks as one batch. Per block: draw a uniformly random
// block B2; if B2 is the block itself update in place; if B2 is a dummy
// block relocate the data there; otherwise issue a camouflage dummy
// update on B2 and redraw. sealed[i] is the new content of the block at
// locs[i], already sealed under seal (the stegfs.UpdatePolicy
// contract): placement never changes a sealed block's bytes, so the
// scheduler only draws and moves blocks. head is the header location
// of the file the run belongs to; the scheduler only hands it on, to
// the intent log and to the Space's commits. On success locs holds
// where each block landed.
//
// The run is planned whole — every draw made, every relocation target
// withdrawn — and then executed as one burst-shaped cycle: every
// element's intent in the ring, one scattered read, the camouflage
// reseals in lanes, one scattered write, and only then the relocations
// committed. A run that fails or is cancelled changes nothing: no
// block map entry, no counter, and every withdrawn target is back in
// the dummy pool; blocks a failed write half-landed on read back as
// their old or their new content.
//
// The context is consulted before every draw — the scheduler's wait
// point, where a run can spin arbitrarily long hunting for dummy blocks
// on a crowded volume. Concurrent calls interleave safely: draws and
// partition bookkeeping serialize inside the Space, while the I/O of
// batches touching different blocks overlaps.
func (s *Scheduler) UpdateRun(ctx context.Context, locs []uint64, head uint64, seal *sealer.Sealer, sealed [][]byte) error {
	if len(locs) != len(sealed) {
		return fmt.Errorf("sched: %d sealed blocks for %d locations", len(sealed), len(locs))
	}
	for _, blk := range sealed {
		if len(blk) != s.vol.BlockSize() {
			return fmt.Errorf("sched: sealed block of %d bytes, want %d", len(blk), s.vol.BlockSize())
		}
	}
	var start time.Time
	if s.metrics != nil {
		start = time.Now()
	}
	b := s.getBatch()
	defer s.putBatch(b)
	if err := s.plan(ctx, b, locs, sealed); err != nil {
		s.settle(b, head, nil, err)
		return err
	}
	if err := s.execute(b, head, seal); err != nil {
		return err
	}
	// Counted only now: a run that failed emitted nothing it can vouch
	// for, and counting it would advance DataSeq and wrongly tell the
	// adaptive daemon the stream is busy while it is in fact silent.
	// The payload elements are the run's blocks, in run order.
	var moved uint64
	landed := locs[:0]
	for i, st := range b.steps {
		if st == stepPayload {
			if b.writes[i] != b.reads[i] {
				moved++
			}
			landed = append(landed, b.writes[i])
		}
	}
	total := 0
	for _, n := range b.iters {
		total += n
		if m := s.metrics; m != nil {
			m.updateIters.Observe(float64(n))
		}
	}
	s.dataUpdates.Add(uint64(len(locs)))
	s.iterations.Add(uint64(total))
	s.relocations.Add(moved)
	s.inPlace.Add(uint64(len(locs)) - moved)
	s.camouflage.Add(uint64(len(b.reads) - len(locs)))
	if m := s.metrics; m != nil {
		m.updateSeconds.Observe(time.Since(start).Seconds())
	}
	return nil
}

// plan runs the Figure-6 draw loop for every block of the run, in
// order, collecting the stream elements it will emit. Relocation
// targets are withdrawn from the dummy pool as they are drawn and
// committed only after the whole batch landed (execute): committing at
// plan time would let a concurrent session relocate onto the vacated
// block — or reseal the target under the data key — before this run's
// payload was anywhere on disk.
//
// Deferring the I/O creates one hazard the one-at-a-time loop did not
// have: a block an earlier element of this plan writes a payload to (in
// place, or as its relocation target under a Space that classifies
// withdrawn targets as occupied) still holds its old bytes when the
// batch is read, so a camouflage reseal of it would be written after —
// over — the new payload. Such a block is mid-operation for the rest of
// the plan: a draw landing on it is a Redraw. Everything else is safe in
// plan order because the batch reads before it writes and writes in
// element order: duplicate camouflage targets reseal the same old bytes
// twice and the last lands; camouflage on an earlier relocation's
// not-yet-vacated source reseals data that is still the durable copy;
// camouflage on a later element's block is overwritten by that
// element's payload or left behind by its relocation.
func (s *Scheduler) plan(ctx context.Context, b *batch, locs []uint64, sealed [][]byte) error {
	for i, loc := range locs {
		for iters := 1; ; iters++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			t, err := s.space.DrawUpdate(loc)
			if err != nil {
				return err
			}
			if t.Kind == Camouflage {
				if !b.writesPayloadTo(t.Loc) {
					b.add(t.Loc, t.Loc, nil)
				}
				continue
			}
			if t.Kind == Redraw {
				continue
			}
			// Self or Relocate: the block lands, in place or on the
			// withdrawn dummy block.
			b.add(loc, t.Loc, sealed[i])
			b.iters = append(b.iters, iters)
			break
		}
	}
	return nil
}

// writesPayloadTo reports whether an element already planned writes a
// payload to loc.
func (b *batch) writesPayloadTo(loc uint64) bool {
	for i, st := range b.steps {
		if st == stepPayload && b.writes[i] == loc {
			return true
		}
	}
	return false
}

// settle finishes the two-phase bookkeeping of every relocation in the
// batch: committed (the vacated block joins the dummy pool, the target
// is recorded under head and seal) when the batch landed, aborted (the
// target returns to the pool, the data never left) when err says it did
// not.
func (s *Scheduler) settle(b *batch, head uint64, seal *sealer.Sealer, err error) {
	for i, st := range b.steps {
		if st != stepPayload || b.reads[i] == b.writes[i] {
			continue
		}
		if err != nil {
			s.space.AbortRelocate(b.reads[i], b.writes[i])
		} else {
			s.space.CommitRelocate(b.reads[i], b.writes[i], head, seal)
		}
	}
}

// execute emits the batch's elements as one read-modify-write cycle
// under the I/O locks of every block they touch, and settles the
// batch's relocations before the locks drop. Dummy updates are
// re-classified under the locks first (Space.Classify), so a block that
// changed role since it was drawn is resealed under its current key, or
// dropped if it is mid-operation — never clobbered with stale
// assumptions. It is the whole of a dummy burst and the second half of
// a data-update run: the two differ only in whether any element carries
// a payload.
func (s *Scheduler) execute(b *batch, head uint64, seal *sealer.Sealer) error {
	b.locked = append(b.locked[:0], b.reads...)
	for i, w := range b.writes {
		if w != b.reads[i] {
			b.locked = append(b.locked, w)
		}
	}
	b.shards = s.locks.LockShards(b.shards, b.locked)
	defer s.locks.UnlockShards(b.shards)

	n := 0
	for i, st := range b.steps {
		var key *sealer.Sealer
		if st != stepPayload {
			act, cur := s.space.Classify(b.reads[i])
			if act == ActSkip {
				continue
			}
			st = stepRefill
			if act == ActReseal {
				st, key = stepReseal, cur
			}
		}
		b.reads[n], b.writes[n], b.steps[n], b.seals[n], b.outs[n] = b.reads[i], b.writes[i], st, key, b.outs[i]
		n++
	}
	b.truncate(n)
	if n == 0 {
		return nil
	}
	// Every element's intent is durable before any element's block is
	// written, so recovery finds both endpoints of every relocation
	// whichever write a power cut interrupts.
	var err error
	if s.intents != nil {
		err = s.intents.LogStream(head, b.reads, b.writes)
	}
	if err == nil {
		err = s.burst(b)
	}
	s.settle(b, head, seal, err)
	return err
}

// dummies draws up to n idle-time targets exactly as n single dummy
// updates would and executes them as one batch. It returns how many
// were issued: targets whose classification went stale between draw
// and execution are dropped.
func (s *Scheduler) dummies(n int) (int, error) {
	b := s.getBatch()
	defer s.putBatch(b)
	if cap(b.locked) < n {
		b.locked = make([]uint64, n)
	}
	locs := b.locked[:n]
	m, err := s.space.DrawDummyBatch(locs)
	if err != nil {
		return 0, err
	}
	if m == 0 {
		return 0, ErrNoTarget
	}
	for _, loc := range locs[:m] {
		b.add(loc, loc, nil)
	}
	if err := s.execute(b, 0, nil); err != nil {
		return 0, err
	}
	s.dummyUpdates.Add(uint64(len(b.reads)))
	return len(b.reads), nil
}

// DummyUpdate issues one idle-time dummy update on a uniformly random
// block of the space: the burst of one.
func (s *Scheduler) DummyUpdate() error {
	for try := 0; try < 64; try++ {
		n, err := s.dummies(1)
		if err != nil || n > 0 {
			return err
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
	var start time.Time
	if s.metrics != nil {
		start = time.Now()
	}
	issued, err := s.dummies(n)
	if m := s.metrics; m != nil && issued > 0 {
		m.burstSeconds.Observe(time.Since(start).Seconds())
	}
	return issued, err
}

// burst is the I/O stage of a batch: one scattered read of every
// element's block (the Figure-6 read is kept for payload elements too,
// so a real update and the dummy it displaced cost the device the
// same), the refills and the reseal lanes, one scattered write —
// payloads to their drawn locations, resealed blocks back in place, in
// element order, so the last write to a block wins.
//
// The reseal elements are compacted, in stream order, into the lane
// lists and their IVs drawn in that order before any I/O (the IV of a
// block does not depend on its content); the refills draw filler in
// stream order after the read. Each of the volume's two streams is
// thus consumed in element order, which is what the committed stream
// digests pin.
func (s *Scheduler) burst(b *batch) error {
	b.raws = b.arena.Blocks(b.raws[:0], len(b.steps), s.vol.BlockSize())
	b.laneSeals, b.laneRaws = b.laneSeals[:0], b.laneRaws[:0]
	for i, st := range b.steps {
		if st == stepPayload {
			continue
		}
		b.outs[i] = b.raws[i]
		if st == stepReseal {
			b.laneSeals = append(b.laneSeals, b.seals[i])
			b.laneRaws = append(b.laneRaws, b.raws[i])
		}
	}
	ivs := b.arena.Bytes(len(b.laneSeals) * sealer.IVSize)
	for i := range b.laneSeals {
		s.vol.NextIV(ivs[i*sealer.IVSize : (i+1)*sealer.IVSize])
	}

	if err := s.dev.ReadBlocksAt(b.reads, b.raws); err != nil {
		return err
	}
	for i, st := range b.steps {
		if st == stepRefill {
			s.vol.FillRandom(b.raws[i])
		}
	}
	if err := sealer.ResealLanes(b.laneSeals, b.laneRaws, ivs); err != nil {
		return err
	}
	return s.dev.WriteBlocksAt(b.writes, b.outs)
}
