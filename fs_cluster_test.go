package steghide_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"steghide"
	isteg "steghide/internal/steghide"
	"steghide/internal/wire"
)

// localCluster builds an n-shard cluster out of in-process session
// FSes (one Construction-2 stack per shard) with cover on every shard.
func localCluster(t *testing.T, n int) *steghide.Cluster {
	t.Helper()
	shards := map[string]steghide.FS{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("shard-%d", i)
		stack, err := steghide.Mount(steghide.NewMemDevice(512, 4096),
			steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("cluster-fill-" + name)}),
			steghide.WithConstruction2(),
			steghide.WithSeed([]byte("cluster-agent-"+name)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { stack.Close() })
		fs, err := stack.Login("alice", "pw")
		if err != nil {
			t.Fatal(err)
		}
		shards[name] = fs
	}
	cl, err := steghide.NewCluster(steghide.ClusterKey("alice", "pw"), shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CoverAll(context.Background(), "/cover", 96); err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestClusterCoverAllConverges pins the retry contract of the cover
// fan-out: a shard that already holds the requested dummy counts as
// covered, so repeating a CoverAll (the whole of it, or after a
// partial failure) succeeds, while asking for a different shape under
// the same path is still the typed "already open".
func TestClusterCoverAllConverges(t *testing.T) {
	cl := localCluster(t, 3) // covered with ("/cover", 96)
	ctx := context.Background()
	if err := cl.CoverAll(ctx, "/cover", 96); err != nil {
		t.Fatalf("repeating an applied CoverAll: %v", err)
	}
	if err := cl.CoverAll(ctx, "/cover", 50); !errors.Is(err, isteg.ErrExists) {
		t.Fatalf("CoverAll of another shape over an existing dummy: want ErrExists, got %v", err)
	}
}

// TestClusterPlacementAndRouting pins the tenancy contract: every file
// lives on exactly the shard the keyed ring names, the cluster listing
// is the sorted union of the shards', and per-shard request counters
// (labelled only with operator-assigned names) move.
func TestClusterPlacementAndRouting(t *testing.T) {
	ctx := context.Background()
	cl := localCluster(t, 3)
	reg := steghide.NewMetrics()
	cl.EnableMetrics(reg, "test-fleet")

	var want []string
	for i := 0; i < 12; i++ {
		path := fmt.Sprintf("/file-%02d", i)
		if err := steghide.WriteFile(ctx, cl, path, []byte("payload-"+path)); err != nil {
			t.Fatal(err)
		}
		want = append(want, path)
	}
	sort.Strings(want)

	perShard := map[string][]string{}
	for _, name := range cl.ShardNames() {
		paths, err := cl.Shard(name).List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		perShard[name] = paths
	}
	for _, path := range want {
		owner := cl.ShardFor(path)
		for name, paths := range perShard {
			found := false
			for _, p := range paths {
				if p == path {
					found = true
				}
			}
			if found != (name == owner) {
				t.Errorf("%s: on shard %s, owner is %s", path, name, owner)
			}
		}
	}
	got, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cluster listing %v, want %v", got, want)
	}

	var total uint64
	for _, name := range cl.ShardNames() {
		total += reg.Counter("steghide_fleet_requests",
			"FS operations routed to the shard", "cluster", "test-fleet", "shard", name).Load()
	}
	if total == 0 {
		t.Fatal("fleet request counters never moved")
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterDrain pins the decommission path: draining a shard moves
// exactly its files onto the survivors through the normal update
// stream, the namespace stays whole, and the drained session is handed
// back for the caller to close. The last shard refuses to drain.
func TestClusterDrain(t *testing.T) {
	ctx := context.Background()
	cl := localCluster(t, 3)

	payload := bytes.Repeat([]byte("drainme "), 40)
	var onVictim int
	const victim = "shard-1"
	for i := 0; i < 12; i++ {
		path := fmt.Sprintf("/file-%02d", i)
		if err := steghide.WriteFile(ctx, cl, path, payload); err != nil {
			t.Fatal(err)
		}
		if cl.ShardFor(path) == victim {
			onVictim++
		}
	}
	if onVictim == 0 {
		t.Fatal("placement put nothing on the victim shard; test is vacuous")
	}

	drained, moved, err := cl.Drain(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	if moved != onVictim {
		t.Fatalf("drain moved %d files, victim held %d", moved, onVictim)
	}
	left, err := drained.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("drained shard still lists %v", left)
	}
	if err := drained.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range cl.ShardNames() {
		if name == victim {
			t.Fatal("victim still in the ring")
		}
	}
	paths, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 12 {
		t.Fatalf("namespace lost files across drain: %v", paths)
	}
	got, err := steghide.ReadFile(ctx, cl, "/file-03")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("content corrupted by drain")
	}
	if _, _, err := cl.Drain(ctx, "no-such-shard"); err == nil {
		t.Fatal("draining an unknown shard succeeded")
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	single := localCluster(t, 1)
	if _, _, err := single.Drain(ctx, "shard-0"); err == nil {
		t.Fatal("draining the last shard succeeded")
	}
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterDrainUnderChaos is the fleet fault-injection story: one
// shard's listener drops and corrupts connections on the stock chaos
// schedule while the cluster serves traffic. Operations routed to the
// healthy shards never notice; operations touching the chaotic shard
// converge under the self-healing client's retry, every intermediate
// failure staying inside the documented taxonomy. Then the chaotic
// shard is drained out — over its own faulty link — and decommissioned
// with the server-side Shutdown goaway.
func TestClusterDrainUnderChaos(t *testing.T) {
	lns := make([]net.Listener, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
	}
	// Shard 0 gets the chaos; every 4th conn is clean.
	flaky := wire.NewFaultListener(lns[0], 42)
	_, srvA := retryStack(t, "fleet-chaos-a", flaky)
	_, srvB := retryStack(t, "fleet-chaos-b", lns[1])
	_, srvC := retryStack(t, "fleet-chaos-c", lns[2])
	killed, kill := context.WithCancel(context.Background())
	kill()
	t.Cleanup(func() { srvA[0].Shutdown(killed) }) //nolint:errcheck // abrupt teardown
	t.Cleanup(func() { srvB[0].Shutdown(killed) }) //nolint:errcheck
	t.Cleanup(func() { srvC[0].Shutdown(killed) }) //nolint:errcheck
	faulty := srvA[0].Addr()
	addrs := []string{faulty, srvB[0].Addr(), srvC[0].Addr()}

	ctx := context.Background()
	var cl *steghide.Cluster
	var err error
	for attempt := 0; ; attempt++ {
		cl, err = steghide.DialClusterFS(ctx, addrs, "alice", "alice-pass",
			steghide.WithRetry(steghide.RetryPolicy{MaxRetries: 8, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, JitterSeed: 7}))
		if err == nil {
			break
		}
		if attempt > 20 {
			t.Fatalf("cluster dial never survived the fault schedule: %v", err)
		}
	}
	defer cl.Close()

	converge := func(name string, op func() error) {
		t.Helper()
		for attempt := 0; ; attempt++ {
			err := op()
			if err == nil {
				return
			}
			if !retryTaxonomy(err) {
				t.Fatalf("%s: error outside the failure taxonomy: %v", name, err)
			}
			if attempt > 50 {
				t.Fatalf("%s never converged: %v", name, err)
			}
		}
	}

	converge("cover", func() error { return cl.CoverAll(ctx, "/cover", 128) })
	payload := bytes.Repeat([]byte("chaos"), 80)
	var healthyPaths, faultyPaths []string
	// Placement hashes the shard addresses, whose ports the kernel
	// picked: twelve files usually land on both sides, and when they do
	// not (one run in a hundred) more are written until they do.
	for i := 0; i < 12 || (len(faultyPaths) == 0 || len(healthyPaths) == 0) && i < 96; i++ {
		path := fmt.Sprintf("/file-%02d", i)
		if cl.ShardFor(path) == faulty {
			faultyPaths = append(faultyPaths, path)
		} else {
			healthyPaths = append(healthyPaths, path)
		}
		converge("write "+path, func() error { return steghide.WriteFile(ctx, cl, path, payload) })
	}
	if len(faultyPaths) == 0 || len(healthyPaths) == 0 {
		t.Fatalf("placement left a side empty (faulty %d, healthy %d); test is vacuous",
			len(faultyPaths), len(healthyPaths))
	}
	// Healthy shards are on clean links: their operations must succeed
	// outright, chaos elsewhere in the fleet notwithstanding.
	for _, path := range healthyPaths {
		if _, err := steghide.ReadFile(ctx, cl, path); err != nil {
			t.Fatalf("read %s via healthy shard failed under chaos: %v", path, err)
		}
	}

	// Decommission the chaotic shard. Drain works over the faulty link
	// itself, so it may surface a taxonomy failure mid-move; the
	// operator's runbook — re-list and re-move through the public
	// surface — must converge to an empty shard.
	drained, _, derr := cl.Drain(ctx, faulty)
	if derr != nil && !retryTaxonomy(derr) {
		t.Fatalf("drain failed outside the taxonomy: %v", derr)
	}
	for attempt := 0; ; attempt++ {
		var left []string
		lerr := func() error {
			var err error
			left, err = drained.List(ctx)
			return err
		}()
		if lerr == nil && len(left) == 0 {
			break
		}
		if lerr != nil && !retryTaxonomy(lerr) {
			t.Fatalf("list on draining shard: error outside the taxonomy: %v", lerr)
		}
		if attempt > 50 {
			t.Fatalf("drain never converged; %v still on the shard (%v)", left, lerr)
		}
		for _, path := range left {
			data, err := steghide.ReadFile(ctx, drained, path)
			if err != nil {
				break // re-list and retry
			}
			if err := steghide.WriteFile(ctx, cl, path, data); err != nil {
				break
			}
			if err := drained.Delete(ctx, path); err != nil {
				break
			}
		}
	}
	drained.Close() //nolint:errcheck // best-effort logout over a chaotic link

	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := srvA[0].Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown after drain: %v", err)
	}

	// The fleet is whole on the survivors, on clean links.
	if names := cl.ShardNames(); len(names) != 2 {
		t.Fatalf("ring still holds %v", names)
	}
	paths, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(healthyPaths)+len(faultyPaths) {
		t.Fatalf("namespace lost files across chaos drain: %v", paths)
	}
	for _, path := range paths {
		got, err := steghide.ReadFile(ctx, cl, path)
		if err != nil {
			t.Fatalf("read %s after drain: %v", path, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s corrupted across chaos drain", path)
		}
	}
}

// TestQuotaOverWire pins that the per-login capacity gate surfaces to
// remote clients as the ordinary typed ErrVolumeFull — the same error
// an actually-full volume raises, so a squeezed login learns nothing
// about real occupancy.
func TestQuotaOverWire(t *testing.T) {
	stack, err := steghide.Mount(steghide.NewMemDevice(512, 2048),
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("quota-wire")}),
		steghide.WithConstruction2(),
		steghide.WithSeed([]byte("quota-wire-agent")),
		steghide.WithLoginQuota(40))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stack.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := steghide.ServeListener(ln, stack)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	ctx := context.Background()
	fs, err := steghide.DialFS(ctx, srv.Addr(), "alice", "alice-pass")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	// 100 blocks + header over a 40-block budget: refused, typed.
	err = fs.CreateDummy(ctx, "/cover", 100)
	if !errors.Is(err, steghide.ErrVolumeFull) {
		t.Fatalf("over-budget dummy: %v", err)
	}
	var pe *steghide.PathError
	if !errors.As(err, &pe) {
		t.Fatalf("quota refusal not a PathError: %v", err)
	}
	if err := fs.CreateDummy(ctx, "/cover", 30); err != nil {
		t.Fatal(err)
	}
	// Headers are one block each: 31 used, 9 fit, the 10th must trip.
	var full error
	for i := 0; i < 10 && full == nil; i++ {
		full = fs.Create(ctx, fmt.Sprintf("/f%d", i))
	}
	if !errors.Is(full, steghide.ErrVolumeFull) {
		t.Fatalf("creates under the budget gate: %v", full)
	}
}

// TestClientConfigDial pins the ClientConfig surface: one struct dials
// a single agent or a whole fleet, and refuses incomplete configs with
// a typed error.
func TestClientConfigDial(t *testing.T) {
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, srv1 := retryStack(t, "cfg-a", ln1)
	_, srv2 := retryStack(t, "cfg-b", ln2)
	t.Cleanup(func() { srv1[0].Close() })
	t.Cleanup(func() { srv2[0].Close() })
	ctx := context.Background()

	if _, err := (steghide.ClientConfig{Agent: srv1[0].Addr()}).Dial(ctx); err == nil {
		t.Fatal("dial without credentials succeeded")
	}
	if _, err := (steghide.ClientConfig{User: "alice", Passphrase: "pw"}).Dial(ctx); err == nil {
		t.Fatal("dial without any address succeeded")
	}

	single, err := steghide.ClientConfig{
		Agent: srv1[0].Addr(), User: "alice", Passphrase: "alice-pass",
		Timeout: 5 * time.Second, Retry: true,
	}.Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close() //nolint:errcheck // idempotent backstop; asserted below
	if err := single.CreateDummy(ctx, "/cover", 64); err != nil {
		t.Fatal(err)
	}
	if err := steghide.WriteFile(ctx, single, "/doc", []byte("single")); err != nil {
		t.Fatal(err)
	}
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}

	fleet, err := steghide.ClientConfig{
		Cluster: []string{srv1[0].Addr(), srv2[0].Addr()},
		User:    "alice", Passphrase: "alice-pass",
	}.Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close() //nolint:errcheck // idempotent backstop; asserted below
	cl, ok := fleet.(*steghide.Cluster)
	if !ok {
		t.Fatalf("cluster config dialed a %T", fleet)
	}
	if n := len(cl.ShardNames()); n != 2 {
		t.Fatalf("cluster has %d shards, want 2", n)
	}
	if err := cl.CoverAll(ctx, "/cover", 64); err != nil {
		t.Fatal(err)
	}
	if err := steghide.WriteFile(ctx, cl, "/fleet-doc", []byte("fleet")); err != nil {
		t.Fatal(err)
	}
	paths, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0] != "/fleet-doc" {
		t.Fatalf("fleet listing %v, want [/fleet-doc]", paths)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
}
