package steghide_test

import (
	"context"
	"fmt"
	"testing"

	"steghide"
	"steghide/internal/attack"
)

// def1Shard is one fleet member with its own traced device, stack and
// snapshot-diffing attacker — the paper's adversary watches one disk.
type def1Shard struct {
	name  string
	mem   *steghide.MemDevice
	stack *steghide.Stack
	fs    steghide.FS
	ua    *steghide.UpdateAnalyzer
	prev  int
}

// mountDef1Shard mounts a Construction-2 stack on a fresh in-memory
// device with shard-distinct format fill and agent seeds, and logs the
// fleet's one login in.
func mountDef1Shard(t *testing.T, name string) *def1Shard {
	t.Helper()
	mem := steghide.NewMemDevice(512, 4096)
	stack, err := steghide.Mount(mem,
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("fleet-fill-" + name)}),
		steghide.WithConstruction2(),
		steghide.WithSeed([]byte("fleet-agent-"+name)),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stack.Close() })
	fs, err := stack.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	return &def1Shard{name: name, mem: mem, stack: stack, fs: fs}
}

// observe closes the current interval on every shard's analyzer and
// returns the per-shard write-address stream of just that interval.
func observeInterval(t *testing.T, shards []*def1Shard) [][]uint64 {
	t.Helper()
	streams := make([][]uint64, len(shards))
	for i, s := range shards {
		if err := s.ua.Observe(s.mem.Snapshot()); err != nil {
			t.Fatal(err)
		}
		all := s.ua.ChangedBlocks()
		streams[i] = all[s.prev:]
		s.prev = len(all)
	}
	return streams
}

// burstAll drives rounds of dummy-update bursts on every shard's agent
// — the fleet's always-on cover cadence.
func burstAll(t *testing.T, shards []*def1Shard, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for _, s := range shards {
			if _, err := s.stack.Agent2().DummyUpdateBurst(40); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFleetPerShardDefinition1 is the acceptance oracle of the sharded
// fleet: under a mixed real+dummy workload spread over the cluster —
// including while Rebalance migrates files onto a newly joined shard —
// the Definition-1 attacker tapping any single shard's device cannot
// tell its idle intervals from its active ones, and the k-snapshot
// homogeneity adversary diffing every consecutive snapshot pair of one
// shard finds no interval that stands out.
func TestFleetPerShardDefinition1(t *testing.T) {
	ctx := context.Background()
	const nBlocks, bins = 4096, 16

	shards := []*def1Shard{
		mountDef1Shard(t, "s0"),
		mountDef1Shard(t, "s1"),
		mountDef1Shard(t, "s2"),
	}
	fss := map[string]steghide.FS{}
	for _, s := range shards {
		fss[s.name] = s.fs
	}
	cl, err := steghide.NewCluster(steghide.ClusterKey("alice", "pw"), fss)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CoverAll(ctx, "/cover", 96); err != nil {
		t.Fatal(err)
	}
	// Baseline snapshot per shard, after cover is in place.
	for _, s := range shards {
		s.ua = steghide.NewUpdateAnalyzer(512, nBlocks)
		if err := s.ua.Observe(s.mem.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}

	// Interval 1 — idle: dummy traffic only, on every shard.
	burstAll(t, shards, 3)
	idle := observeInterval(t, shards)

	// Interval 2 — active: real files written through the cluster,
	// hidden in the same dummy cadence.
	payload := []byte("fleet definition-one payload ")
	for len(payload) < 600 {
		payload = append(payload, payload...)
	}
	for f := 0; f < 16; f++ {
		path := fmt.Sprintf("/doc-%02d", f)
		if err := steghide.WriteFile(ctx, cl, path, payload); err != nil {
			t.Fatal(err)
		}
		if f%4 == 3 {
			burstAll(t, shards, 1)
		}
	}
	active := observeInterval(t, shards)
	for i, s := range shards {
		v, err := attack.CompareStreams(idle[i], active[i], nBlocks, bins)
		if err != nil {
			t.Fatal(err)
		}
		if v.Detected {
			t.Errorf("shard %s: Definition-1 attacker separated idle from active: %+v", s.name, v)
		}
	}

	// Interval 3 — rebalance: a fourth shard joins and Rebalance
	// relocates every file whose owner moved, while the dummy cadence
	// keeps running fleet-wide. The migration is ordinary update
	// traffic on both ends, so no shard's interval may stand out.
	joined := mountDef1Shard(t, "s3")
	if err := joined.fs.CreateDummy(ctx, "/cover", 96); err != nil {
		t.Fatal(err)
	}
	joined.ua = steghide.NewUpdateAnalyzer(512, nBlocks)
	if err := joined.ua.Observe(joined.mem.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddShard(joined.name, joined.fs); err != nil {
		t.Fatal(err)
	}
	shards = append(shards, joined)

	burstAll(t, shards, 1)
	moved, err := cl.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("rebalance moved no files onto the new shard")
	}
	burstAll(t, shards, 1)
	rebal := observeInterval(t, shards)

	// Interval 4 — idle again, for the homogeneity panel and as the
	// new shard's reference interval.
	burstAll(t, shards, 3)
	idle2 := observeInterval(t, shards)

	for i, s := range shards[:3] {
		v, err := attack.CompareStreams(idle[i], rebal[i], nBlocks, bins)
		if err != nil {
			t.Fatal(err)
		}
		if v.Detected {
			t.Errorf("shard %s: rebalance interval distinguishable from idle: %+v", s.name, v)
		}
	}
	// The joined shard received the migrated files; its rebalance
	// interval must match its own subsequent idle interval.
	v, err := attack.CompareStreams(rebal[3], idle2[3], nBlocks, bins)
	if err != nil {
		t.Fatal(err)
	}
	if v.Detected {
		t.Errorf("joined shard: migration interval distinguishable from idle: %+v", v)
	}

	// k-snapshot adversary on one shard of the fleet: every consecutive
	// snapshot pair (idle, active, rebalance, idle) as one homogeneity
	// panel.
	if n := shards[0].ua.Intervals(); n != 4 {
		t.Fatalf("shard s0 recorded %d intervals, want 4", n)
	}
	hv, err := shards[0].ua.SnapshotHomogeneity(8)
	if err != nil {
		t.Fatal(err)
	}
	if hv.Detected {
		t.Errorf("shard s0: k-snapshot adversary separated the intervals: %+v", hv)
	}

	// The namespace survived the reshard intact.
	paths, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 16 {
		t.Fatalf("cluster lists %d files after rebalance, want 16", len(paths))
	}
	got, err := steghide.ReadFile(ctx, cl, "/doc-07")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatal("file content corrupted by rebalance")
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
}
