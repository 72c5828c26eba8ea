package steghide_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"steghide"
	"steghide/internal/mempool"
)

// oracleRun is everything an observer (or the repo's figure harness)
// can measure about one workload execution.
type oracleRun struct {
	events  []steghide.Event
	image   []byte
	stats   steghide.UpdateStats
	uniform steghide.Verdict
	def1    steghide.Verdict
}

// digest is the SHA-256 of every observable of the run: the device
// trace (op, block, count per event, in order), the final image, the
// scheduler counters and both attacker verdicts.
func (r oracleRun) digest() string {
	h := sha256.New()
	for _, e := range r.events {
		fmt.Fprintf(h, "%d %d %d\n", e.Op, e.Block, e.Count)
	}
	h.Write(r.image)
	fmt.Fprintf(h, "%+v\n%+v\n%+v\n", r.stats, r.uniform, r.def1)
	return hex.EncodeToString(h.Sum(nil))
}

// runOracle mounts a journaled Construction-2 stack on a traced
// in-memory device, runs a fixed workload of real writes interleaved
// with dummy bursts, and collects every observable: the full trace, the
// final volume image, scheduler counters, and the §3.2 attacker
// verdicts (spatial uniformity of changed blocks, and CompareStreams —
// the operational Definition 1 — between an idle and an active
// interval).
func runOracle(t *testing.T) oracleRun {
	t.Helper()
	tap := &steghide.Collector{}
	mem := steghide.NewMemDevice(512, 4096)
	stack, err := steghide.Mount(mem,
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("oracle-fill")}),
		steghide.WithConstruction2(),
		steghide.WithSeed([]byte("oracle-agent")),
		steghide.WithTrace(tap),
		steghide.WithJournal("oracle-journal"),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fs, err := stack.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateDummy(ctx, "/cover", 96); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create(ctx, "/doc"); err != nil {
		t.Fatal(err)
	}
	agent := stack.Agent2()
	ua := steghide.NewUpdateAnalyzer(512, 4096)
	if err := ua.Observe(mem.Snapshot()); err != nil {
		t.Fatal(err)
	}

	// Idle interval: dummy traffic only.
	for i := 0; i < 3; i++ {
		if _, err := agent.DummyUpdateBurst(40); err != nil {
			t.Fatal(err)
		}
	}
	if err := ua.Observe(mem.Snapshot()); err != nil {
		t.Fatal(err)
	}
	idle := ua.ChangedBlocks()

	// Active interval: real writes hidden in the same dummy cadence.
	payload := bytes.Repeat([]byte("pipeline oracle "), 20)
	w, err := fs.OpenWrite(ctx, "/doc")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.WriteAt(payload, int64(i*len(payload))); err != nil {
			t.Fatal(err)
		}
		if _, err := agent.DummyUpdateBurst(40); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ua.Observe(mem.Snapshot()); err != nil {
		t.Fatal(err)
	}
	active := ua.ChangedBlocks()

	uniform, err := ua.SpatialUniformity(16)
	if err != nil {
		t.Fatal(err)
	}
	def1, err := steghide.CompareStreams(idle, active, mem.NumBlocks(), 16)
	if err != nil {
		t.Fatal(err)
	}
	stats := agent.Stats()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := stack.Close(); err != nil {
		t.Fatal(err)
	}
	return oracleRun{
		events:  tap.Events(),
		image:   mem.Snapshot(),
		stats:   stats,
		uniform: uniform,
		def1:    def1,
	}
}

// oracleImageDigest is the SHA-256 of the final device image of the
// seeded oracle workload (runOracle): every byte the block kernels, the
// filler keystream and the decision stream leave on the device for
// fixed seeds. The oracle volume is journaled, so the digest covers the
// ring's bytes: it was regenerated when the ring went from one record
// per slot to cells (the steg space is byte-identical), and again for
// write-behind: the workload's three sub-block WriteAts through one
// handle used to land as they came, one run of one or two blocks each
// between the dummy bursts, and now land once, as one run, at Close —
// fewer data updates, drawn later in the decision stream.
const oracleImageDigest = "83605254ce8df93f7af5b30235d2ee1920b91b1e01d0d326a042ab442fba2afd"

// oracleDigest is runOracle's digest over every observable, recorded
// at the commit before the staged seal pipeline and the pool switch
// were deleted, where serial and pipelined bursts, pooled and unpooled,
// all met it.
const oracleDigest = "94d2dc24ac2c3f3c07735607f3eed0ef94a80c380dd04182163a59162295acf2"

// TestKernelOracleImageDigest pins the oracle workload's final image
// against the committed digest. One process links one kernel build, so
// the assembly and the purego (stdlib) builds cannot be compared in a
// single run; CI runs this test under both, and both must meet the same
// constant — which is the proof that they write byte-identical volumes.
// A change that intends to move on-disk bytes or the stream for fixed
// seeds regenerates the constants and says why.
func TestKernelOracleImageDigest(t *testing.T) {
	sum := sha256.Sum256(runOracle(t).image)
	if got := hex.EncodeToString(sum[:]); got != oracleImageDigest {
		t.Errorf("oracle image digest %s, want %s", got, oracleImageDigest)
	}
}

// TestPipelineObservableOracle is the acceptance oracle of the one
// burst path at the outermost layer: everything the paper's attacker
// can see — trace, image, scheduler counters, both verdicts — must meet
// oracleDigest, which the staged seal pipeline met too before it was
// deleted, so removing it moved no figure metric and no verdict.
func TestPipelineObservableOracle(t *testing.T) {
	run := runOracle(t)
	if got := run.digest(); got != oracleDigest {
		t.Errorf("oracle digest %s, want %s", got, oracleDigest)
	}
	// Sanity on the workload itself: Definition 1 must hold.
	// (SpatialUniformity over the raw device legitimately flags the
	// journal ring — intent slots cluster by design — so only its
	// digest is pinned, not its verdict.)
	if run.def1.Detected {
		t.Fatalf("Definition-1 attacker separated idle from active: %+v", run.def1)
	}
}

// TestMemPoolObservableOracle is the acceptance oracle of the memory
// plane at the outermost layer: pooling changes buffer provenance only,
// never an observable byte. With every buffer the pools take back
// overwritten by poison, a recycled buffer read before it is fully
// rewritten would reach the trace, the image or a verdict; the poisoned
// run must still meet oracleDigest, which the clean run meets
// (TestPipelineObservableOracle) and the unpooled plane met too before
// its switch was deleted.
func TestMemPoolObservableOracle(t *testing.T) {
	prev := mempool.SetPoison(0xDB)
	poisoned := runOracle(t)
	mempool.SetPoison(prev)
	if got := poisoned.digest(); got != oracleDigest {
		t.Errorf("poisoned oracle digest %s, want %s", got, oracleDigest)
	}
}
