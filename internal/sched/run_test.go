package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"steghide/internal/attack"
	"steghide/internal/blockdev"
	"steghide/internal/obs"
	"steghide/internal/prng"
	"steghide/internal/sealer"
	"steghide/internal/stats"
	"steghide/internal/stegfs"
)

// genPayload is the content of logical block i at generation gen.
func genPayload(vol *stegfs.Volume, i, gen int) []byte {
	return prng.New([]byte(fmt.Sprintf("block %d gen %d", i, gen))).Bytes(vol.PayloadSize())
}

// sealRun seals one payload per block of a run, IVs in order — what
// File.writeRun hands the policy.
func sealRun(t testing.TB, vol *stegfs.Volume, seal *sealer.Sealer, payloads [][]byte) [][]byte {
	t.Helper()
	raws := blockdev.AllocBlocks(len(payloads), vol.BlockSize())
	if err := seal.SealMany(raws, vol.NextIV, payloads); err != nil {
		t.Fatal(err)
	}
	return raws
}

// writeFile acquires n blocks from source and writes generation 0 of
// each: a file's data blocks as the scheduler sees them.
func writeFile(t testing.TB, vol *stegfs.Volume, source *stegfs.BitmapSource, seal *sealer.Sealer, n int) []uint64 {
	t.Helper()
	locs := make([]uint64, n)
	for i := range locs {
		loc, err := source.AcquireRandom()
		if err != nil {
			t.Fatal(err)
		}
		locs[i] = loc
		if err := vol.WriteSealed(nil, loc, seal, genPayload(vol, i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return locs
}

// steadyWrites returns the steg-space offsets of the write events in
// col, in order: the written-address sequence an observer records.
func steadyWrites(col *blockdev.Collector, vol *stegfs.Volume) []uint64 {
	var out []uint64
	for _, e := range col.Events() {
		if e.Op == blockdev.OpWrite && e.Block >= vol.FirstDataBlock() {
			out = append(out, e.Block-vol.FirstDataBlock())
		}
	}
	return out
}

// TestRunMatchesSingleUpdates routes the same update sequence, from the
// same seeds, once as 16-block runs and once as single-block calls. The
// two must agree on everything an owner or an observer can check: every
// block reads back its last payload, the counters obey the stream's
// identities, measured E sits on N/D at both utilisations, and the
// written-address sequence is uniform and indistinguishable from the
// single-call stream's and from an idle stream of dummy bursts.
func TestRunMatchesSingleUpdates(t *testing.T) {
	const (
		fileBlocks = 64
		run        = 16
		rounds     = 640 // × 16 = 10 240 data updates per arm
	)
	for _, util := range []float64{0.25, 0.5} {
		t.Run(fmt.Sprintf("util=%.2f", util), func(t *testing.T) {
			type arm struct {
				s     *Scheduler
				vol   *stegfs.Volume
				col   *blockdev.Collector
				seal  *sealer.Sealer
				locs  []uint64
				wantE float64
			}
			build := func() *arm {
				col := &blockdev.Collector{}
				s, vol, source := newBitmapRigOn(t, blockdev.NewTraced(blockdev.NewMem(128, 4096), col), util)
				seal, err := vol.NewSealer([32]byte{1, 2, 3})
				if err != nil {
					t.Fatal(err)
				}
				a := &arm{s: s, vol: vol, col: col, seal: seal, locs: writeFile(t, vol, source, seal, fileBlocks)}
				first, n := source.SpaceBounds()
				a.wantE = float64(n-first) / float64(source.FreeCount())
				col.Reset()
				return a
			}
			batch, single := build(), build()
			gen := make([]int, fileBlocks)
			for r := 0; r < rounds; r++ {
				lo := (r * 7) % (fileBlocks - run + 1)
				payloads := make([][]byte, run)
				for i := range payloads {
					gen[lo+i]++
					payloads[i] = genPayload(batch.vol, lo+i, gen[lo+i])
				}
				if err := batch.s.UpdateRun(context.Background(), batch.locs[lo:lo+run], 0, batch.seal, sealRun(t, batch.vol, batch.seal, payloads)); err != nil {
					t.Fatal(err)
				}
				for i, sealed := range sealRun(t, single.vol, single.seal, payloads) {
					if err := single.s.UpdateRun(context.Background(), single.locs[lo+i:lo+i+1], 0, single.seal, [][]byte{sealed}); err != nil {
						t.Fatal(err)
					}
				}
			}
			const n = rounds * run
			for name, a := range map[string]*arm{"batch": batch, "single": single} {
				if dup := len(a.locs) - len(slices.Compact(slices.Sorted(slices.Values(a.locs)))); dup != 0 {
					t.Fatalf("%s: %d blocks share a location", name, dup)
				}
				for i, loc := range a.locs {
					got, err := openBlock(a.vol, loc, a.seal)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, genPayload(a.vol, i, gen[i])) {
						t.Fatalf("%s: block %d does not read back its last payload", name, i)
					}
				}
				st := a.s.Stats()
				if st.DataUpdates != n || st.Relocations+st.InPlace != n {
					t.Fatalf("%s: %d updates must each end relocated or in place: %+v", name, n, st)
				}
				if st.Iterations < n+st.Camouflage {
					t.Fatalf("%s: iterations must cover every landing and camouflage update: %+v", name, st)
				}
				if redraws := st.Iterations - n - st.Camouflage; redraws*50 > st.Iterations {
					t.Fatalf("%s: %d of %d draws redrawn", name, redraws, st.Iterations)
				}
				gotE := float64(st.Iterations) / float64(st.DataUpdates)
				if gotE < a.wantE*0.9 || gotE > a.wantE*1.1 {
					t.Fatalf("%s: measured E=%.3f, analytic N/D=%.3f", name, gotE, a.wantE)
				}
				t.Logf("%s: E=%.3f (N/D %.3f), %+v", name, gotE, a.wantE, st)
			}

			span := batch.vol.NumBlocks() - batch.vol.FirstDataBlock()
			active := steadyWrites(batch.col, batch.vol)
			if camo := batch.s.Stats().Camouflage; uint64(len(active)) != n+camo {
				t.Fatalf("%d writes observed for %d landings and %d camouflage updates", len(active), n, camo)
			}
			if _, p, err := stats.ChiSquareUniform(stats.Histogram(active, span, 16)); err != nil || p < attack.Alpha {
				t.Fatalf("batch write stream not uniform: p=%v err=%v", p, err)
			}
			if v, err := attack.CompareStreams(steadyWrites(single.col, single.vol), active, span, 16); err != nil || v.Detected {
				t.Fatalf("batch stream told from the single-call stream: %+v %v", v, err)
			}
			batch.col.Reset()
			for i := 0; i < 160; i++ {
				if _, err := batch.s.DummyUpdateBurst(64); err != nil {
					t.Fatal(err)
				}
			}
			if v, err := attack.CompareStreams(steadyWrites(batch.col, batch.vol), active, span, 16); err != nil || v.Detected {
				t.Fatalf("batch stream told from idle bursts: %+v %v", v, err)
			}
		})
	}
}

// scriptSpace is a Space whose draws the test supplies, so a plan can
// be forced through each ordering the batch has to get right. Every
// block reseals under one key; targets listed in skip classify as
// mid-operation.
type scriptSpace struct {
	seal  *sealer.Sealer
	draws []Target
	skip  map[uint64]bool
	// onDraw, when set, runs before each draw is handed out.
	onDraw func(n int)

	drawn              int
	committed, aborted [][2]uint64
}

func (sp *scriptSpace) DrawUpdate(uint64) (Target, error) {
	if sp.onDraw != nil {
		sp.onDraw(sp.drawn)
	}
	if sp.drawn == len(sp.draws) {
		return Target{}, errors.New("script exhausted")
	}
	sp.drawn++
	return sp.draws[sp.drawn-1], nil
}

func (sp *scriptSpace) Settle(oldLocs, newLocs []uint64, _ uint64, _ *sealer.Sealer, committed bool) {
	for i := range oldLocs {
		if committed {
			sp.committed = append(sp.committed, [2]uint64{oldLocs[i], newLocs[i]})
		} else {
			sp.aborted = append(sp.aborted, [2]uint64{oldLocs[i], newLocs[i]})
		}
	}
}

func (sp *scriptSpace) DrawDummyBatch([]uint64) (int, error) { return 0, nil }

func (sp *scriptSpace) Classify(locs []uint64, acts []Action, seals []*sealer.Sealer) {
	for i, loc := range locs {
		acts[i], seals[i] = ActReseal, sp.seal
		if sp.skip[loc] {
			acts[i], seals[i] = ActSkip, nil
		}
	}
}

// Blocks of the scripted plans: a two-block run (A, B), a bystander Z
// and two dummy blocks T, U.
const (
	blkA, blkB, blkZ, blkT, blkU = 10, 11, 20, 30, 31
)

// newScriptRig formats a small traced volume, writes generation 0 of
// A, B and Z, and builds a scheduler over the scripted draws.
func newScriptRig(t *testing.T, draws ...Target) (*Scheduler, *stegfs.Volume, *scriptSpace, *blockdev.Collector) {
	t.Helper()
	col := &blockdev.Collector{}
	vol, err := stegfs.Format(blockdev.NewTraced(blockdev.NewMem(128, 64), col),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("script")})
	if err != nil {
		t.Fatal(err)
	}
	seal, err := vol.NewSealer([32]byte{7})
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range []uint64{blkA, blkB, blkZ} {
		if err := vol.WriteSealed(nil, loc, seal, genPayload(vol, int(loc), 0)); err != nil {
			t.Fatal(err)
		}
	}
	sp := &scriptSpace{seal: seal, draws: draws}
	col.Reset()
	return New(vol, sp), vol, sp, col
}

// TestPlanOrderings forces, with a scripted Space, each ordering of
// draws inside one plan that deferring the I/O could get wrong, and
// checks the batch against the model: every block reads back what the
// one-at-a-time loop would have left, the last write to a block wins,
// and no element is lost from the stream or the intent log.
func TestPlanOrderings(t *testing.T) {
	type want struct {
		loc uint64
		blk int // whose payload
		gen int
	}
	cases := []struct {
		name   string
		draws  []Target
		skip   []uint64
		landed [2]uint64
		want   []want
		// resealed blocks keep their content under a new IV.
		resealed                  []uint64
		iters, camouflage, relocs uint64
	}{
		{
			// The hazard: A is rewritten in place, then B's loop draws A.
			// Camouflage would reseal A's stale bytes over the new
			// payload; the draw must count and do nothing.
			name:   "draw on a block an earlier element wrote in place",
			draws:  []Target{{blkA, Self}, {blkA, Camouflage}, {blkB, Self}},
			landed: [2]uint64{blkA, blkB},
			want:   []want{{blkA, blkA, 1}, {blkB, blkB, 1}},
			iters:  3,
		},
		{
			// The same hazard under a Space that classifies a withdrawn
			// relocation target as occupied (BitmapSpace does).
			name:   "draw on an earlier element's relocation target",
			draws:  []Target{{blkT, Relocate}, {blkT, Camouflage}, {blkB, Self}},
			landed: [2]uint64{blkT, blkB},
			want:   []want{{blkT, blkA, 1}, {blkA, blkA, 0}, {blkB, blkB, 1}},
			iters:  3, relocs: 1,
		},
		{
			name:     "the same camouflage target twice",
			draws:    []Target{{blkZ, Camouflage}, {blkZ, Camouflage}, {blkA, Self}, {blkB, Self}},
			landed:   [2]uint64{blkA, blkB},
			want:     []want{{blkA, blkA, 1}, {blkB, blkB, 1}, {blkZ, blkZ, 0}},
			resealed: []uint64{blkZ},
			iters:    4, camouflage: 2,
		},
		{
			name:     "camouflage on an earlier relocation's not-yet-vacated source",
			draws:    []Target{{blkT, Relocate}, {blkA, Camouflage}, {blkB, Self}},
			landed:   [2]uint64{blkT, blkB},
			want:     []want{{blkT, blkA, 1}, {blkA, blkA, 0}, {blkB, blkB, 1}},
			resealed: []uint64{blkA},
			iters:    3, camouflage: 1, relocs: 1,
		},
		{
			name:   "camouflage on a later element's block, then rewritten in place",
			draws:  []Target{{blkB, Camouflage}, {blkA, Self}, {blkB, Self}},
			landed: [2]uint64{blkA, blkB},
			want:   []want{{blkA, blkA, 1}, {blkB, blkB, 1}},
			iters:  3, camouflage: 1,
		},
		{
			name:     "camouflage on a later element's block, then relocated",
			draws:    []Target{{blkB, Camouflage}, {blkA, Self}, {blkU, Relocate}},
			landed:   [2]uint64{blkA, blkU},
			want:     []want{{blkA, blkA, 1}, {blkU, blkB, 1}, {blkB, blkB, 0}},
			resealed: []uint64{blkB},
			iters:    3, camouflage: 1, relocs: 1,
		},
		{
			// A target that went mid-operation since its draw is dropped:
			// the iteration stays counted, no slot and no I/O are spent.
			name:   "camouflage target stale at execution",
			draws:  []Target{{blkZ, Camouflage}, {blkA, Self}, {blkB, Self}},
			skip:   []uint64{blkZ},
			landed: [2]uint64{blkA, blkB},
			want:   []want{{blkA, blkA, 1}, {blkB, blkB, 1}, {blkZ, blkZ, 0}},
			iters:  3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, vol, sp, col := newScriptRig(t, tc.draws...)
			sp.skip = map[uint64]bool{}
			for _, loc := range tc.skip {
				sp.skip[loc] = true
			}
			ci := &countingIntents{}
			s.SetIntentLog(ci)
			before := map[uint64][]byte{}
			for _, loc := range tc.resealed {
				before[loc] = make([]byte, vol.BlockSize())
				if err := blockdev.ReadBlock(vol.Device(), loc, before[loc]); err != nil {
					t.Fatal(err)
				}
			}
			col.Reset()

			locs := []uint64{blkA, blkB}
			sealed := sealRun(t, vol, sp.seal, [][]byte{genPayload(vol, blkA, 1), genPayload(vol, blkB, 1)})
			if err := s.UpdateRun(context.Background(), locs, 0, sp.seal, sealed); err != nil {
				t.Fatal(err)
			}
			events := col.Events()
			if locs[0] != tc.landed[0] || locs[1] != tc.landed[1] {
				t.Fatalf("landed on %v, want %v", locs, tc.landed)
			}
			for _, w := range tc.want {
				got, err := openBlock(vol, w.loc, sp.seal)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, genPayload(vol, w.blk, w.gen)) {
					t.Fatalf("block %d does not hold generation %d of block %d", w.loc, w.gen, w.blk)
				}
			}
			for loc, old := range before {
				now := make([]byte, vol.BlockSize())
				if err := blockdev.ReadBlock(vol.Device(), loc, now); err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(now, old) {
					t.Fatalf("camouflage left block %d's ciphertext unchanged", loc)
				}
			}
			st := s.Stats()
			if st.DataUpdates != 2 || st.Iterations != tc.iters || st.Camouflage != tc.camouflage ||
				st.Relocations != tc.relocs || st.InPlace != 2-tc.relocs {
				t.Fatalf("counters: %+v", st)
			}
			elements := 2 + tc.camouflage
			if got := uint64(ci.relocs + ci.dummies); got != elements || uint64(ci.relocs) != tc.relocs {
				t.Fatalf("%d intents (%d relocations) for %d elements", got, ci.relocs, elements)
			}
			if uint64(len(sp.committed)) != tc.relocs || len(sp.aborted) != 0 {
				t.Fatalf("committed %v aborted %v", sp.committed, sp.aborted)
			}
			// The batch is one burst on the device: every read before
			// every write, one of each per element.
			var reads, writes int
			for _, e := range events {
				if e.Op == blockdev.OpWrite {
					writes++
				} else if writes > 0 {
					t.Fatal("a read after the batch's first write")
				} else {
					reads++
				}
			}
			if uint64(reads) != elements || uint64(writes) != elements {
				t.Fatalf("%d reads, %d writes for %d elements", reads, writes, elements)
			}
		})
	}
}

// TestRunCancelledMidPlan: a context that fires between two draws ends
// the run before any I/O — nothing read, nothing written, no intent —
// with every target the plan had withdrawn back in the pool.
func TestRunCancelledMidPlan(t *testing.T) {
	s, vol, sp, col := newScriptRig(t,
		Target{blkT, Relocate}, Target{blkZ, Camouflage}, Target{blkU, Relocate})
	ci := &countingIntents{}
	s.SetIntentLog(ci)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sp.onDraw = func(n int) {
		if n == 1 { // A has landed on T; B's first draw is in flight
			cancel()
		}
	}
	locs := []uint64{blkA, blkB}
	sealed := sealRun(t, vol, sp.seal, [][]byte{genPayload(vol, blkA, 1), genPayload(vol, blkB, 1)})
	err := s.UpdateRun(ctx, locs, 0, sp.seal, sealed)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v", err)
	}
	if col.Len() != 0 || ci.relocs+ci.dummies != 0 {
		t.Fatalf("cancelled run emitted %d device events and %d intents", col.Len(), ci.relocs+ci.dummies)
	}
	if locs[0] != blkA || locs[1] != blkB {
		t.Fatalf("cancelled run moved the map: %v", locs)
	}
	// The draw in flight ran to completion; the next was never made.
	want := [][2]uint64{{blkA, blkT}}
	if sp.drawn != 2 || !slices.Equal(sp.aborted, want) || len(sp.committed) != 0 {
		t.Fatalf("%d draws, aborted %v committed %v, want %v aborted", sp.drawn, sp.aborted, sp.committed, want)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("cancelled run moved counters: %+v", st)
	}
}

// TestRunFaultAtEveryIO fails the device at every read and every write
// index of one batch in turn. Each time the call must fail as a whole:
// locations and counters untouched, every withdrawn target back in the
// dummy pool, and every block of the run still holding its old or —
// where an in-place write landed before the fault — its new content,
// never anything else.
func TestRunFaultAtEveryIO(t *testing.T) {
	const run = 16
	for _, op := range []string{"read", "write"} {
		for k := int64(0); ; k++ {
			fd := blockdev.NewFault(blockdev.NewMem(128, 512))
			s, vol, source := newBitmapRigOn(t, fd, 0.4)
			seal, err := vol.NewSealer([32]byte{1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			locs := writeFile(t, vol, source, seal, run)
			orig := slices.Clone(locs)
			free := source.FreeCount()
			payloads := make([][]byte, run)
			for i := range payloads {
				payloads[i] = genPayload(vol, i, 1)
			}
			sealed := sealRun(t, vol, seal, payloads)
			if op == "read" {
				fd.FailReadsAfter(k)
			} else {
				fd.FailWritesAfter(k)
			}
			err = s.UpdateRun(context.Background(), locs, 0, seal, sealed)
			fd.Heal()
			if err == nil {
				if k < run {
					t.Fatalf("%s fault %d did not reach a %d-block batch", op, k, run)
				}
				break // the fault index is past the batch: every index covered
			}
			if !errors.Is(err, blockdev.ErrInjected) {
				t.Fatalf("%s fault %d: %v", op, k, err)
			}
			if !slices.Equal(locs, orig) {
				t.Fatalf("%s fault %d: failed run moved the map", op, k)
			}
			if got := source.FreeCount(); got != free {
				t.Fatalf("%s fault %d: %d withdrawn targets not returned", op, k, free-got)
			}
			if st := s.Stats(); st != (Stats{}) {
				t.Fatalf("%s fault %d: failed run moved counters: %+v", op, k, st)
			}
			for i, loc := range locs {
				got, err := openBlock(vol, loc, seal)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, genPayload(vol, i, 0)) && !bytes.Equal(got, payloads[i]) {
					t.Fatalf("%s fault %d: block %d holds neither its old nor its new content", op, k, i)
				}
			}
		}
	}
}

// TestRunsSessionsAndBurstsOverlap is the concurrency property of the
// batch: one writer placing whole runs, one placing single blocks and
// the daemon's bursts, on a space small enough that their batches share
// blocks and lock shards constantly. Run under -race.
func TestRunsSessionsAndBurstsOverlap(t *testing.T) {
	s, vol, source := newBitmapRig(t, 256, 0.4)
	seal, err := vol.NewSealer([32]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	const run, rounds = 16, 30
	runLocs := writeFile(t, vol, source, seal, run)
	oneLocs := writeFile(t, vol, source, seal, run)
	// Sealed ahead of the goroutines: helpers that can t.Fatal stay on
	// the test's own.
	sealedRuns := make([][][]byte, 2*rounds) // writer w's round r at [2*(r-1)+w]
	for r := 1; r <= rounds; r++ {
		for w := 0; w < 2; w++ {
			payloads := make([][]byte, run)
			for i := range payloads {
				payloads[i] = genPayload(vol, w*run+i, r)
			}
			sealedRuns[2*(r-1)+w] = sealRun(t, vol, seal, payloads)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for r := 1; r <= rounds; r++ {
			if err := s.UpdateRun(context.Background(), runLocs, 0, seal, sealedRuns[2*(r-1)]); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 1; r <= rounds; r++ {
			for i := range oneLocs {
				if err := s.UpdateRun(context.Background(), oneLocs[i:i+1], 0, seal, sealedRuns[2*(r-1)+1][i:i+1]); err != nil {
					errCh <- err
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for k := 0; k < rounds; k++ {
			if _, err := s.DummyUpdateBurst(32); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for i := 0; i < run; i++ {
		for _, f := range []struct {
			loc uint64
			blk int
		}{{runLocs[i], i}, {oneLocs[i], run + i}} {
			got, err := openBlock(vol, f.loc, seal)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, genPayload(vol, f.blk, rounds)) {
				t.Fatalf("block %d corrupted under overlapping batches", f.blk)
			}
		}
	}
	if st := s.Stats(); st.DataUpdates != 2*run*rounds || st.DummyUpdates != 32*rounds {
		t.Fatalf("counters: %+v", st)
	}
}

// TestUpdateHistogramSemantics pins what the two update histograms
// count: update_seconds one observation per scheduler call — a run is
// timed once, not once per block — and update_iterations one per data
// update, so its mean stays the measured E.
func TestUpdateHistogramSemantics(t *testing.T) {
	s, vol, source := newBitmapRig(t, 512, 0.4)
	s.EnableMetrics(obs.NewRegistry(), "vol")
	seal, err := vol.NewSealer([32]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	const run = 16
	locs := writeFile(t, vol, source, seal, run)
	payloads := make([][]byte, run)
	for i := range payloads {
		payloads[i] = genPayload(vol, i, 1)
	}
	sealed := sealRun(t, vol, seal, payloads)
	if err := s.UpdateRun(context.Background(), locs, 0, seal, sealed); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateRun(context.Background(), locs[:1], 0, seal, sealed[:1]); err != nil {
		t.Fatal(err)
	}
	m := s.metrics
	if got := m.updateSeconds.Count(); got != 2 {
		t.Errorf("update_seconds holds %d observations for 2 scheduler calls", got)
	}
	if got := m.updateIters.Count(); got != run+1 {
		t.Errorf("update_iterations holds %d observations for %d data updates", got, run+1)
	}
	if got, want := m.updateIters.Sum(), float64(s.Stats().Iterations); got != want {
		t.Errorf("update_iterations sums to %v, the stream counted %v iterations", got, want)
	}
}
