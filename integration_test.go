package steghide_test

import (
	"bytes"
	"context"
	"testing"

	"steghide"
	"steghide/internal/blockdev"
	"steghide/internal/experiments"
	"steghide/internal/prng"
	isteg "steghide/internal/steghide"
)

// TestFullStackScenario wires every major component together the way
// a real deployment would: striped multi-node storage served over
// TCP with attacker taps, a volatile agent with multiple users and
// interleaved dummy traffic, an oblivious read cache on top, and the
// attackers verifying that nothing observable leaks.
func TestFullStackScenario(t *testing.T) {
	ctx := context.Background()
	// --- two storage nodes, each tapped ------------------------------
	const nodes = 2
	taps := make([]*steghide.Collector, nodes)
	var members []steghide.Device
	for i := 0; i < nodes; i++ {
		taps[i] = &steghide.Collector{}
		local := steghide.NewMemDevice(512, 2048)
		srv, err := steghide.NewStorageServer("127.0.0.1:0", local, taps[i])
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		remote, err := steghide.DialStorage(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer remote.Close()
		members = append(members, remote)
	}
	stripe, err := blockdev.NewStriped(members...)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := steghide.Format(stripe, steghide.FormatOptions{FillSeed: []byte("it")})
	if err != nil {
		t.Fatal(err)
	}

	// --- the agent and two users --------------------------------------
	agent := isteg.NewVolatile(vol, prng.New([]byte("agent")))
	alice, err := agent.Login("alice", "a-pw")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := agent.Login("bob", "b-pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.CreateDummy("/a-cover", 200); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.CreateDummy("/b-cover", 200); err != nil {
		t.Fatal(err)
	}
	aliceFile, err := alice.Create("/a-notes")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Create("/b-notes"); err != nil {
		t.Fatal(err)
	}

	rng := prng.NewFromUint64(42)
	ps := vol.PayloadSize()
	aliceData := rng.Bytes(30 * ps)
	bobData := rng.Bytes(20 * ps)
	if err := alice.Write(ctx, "/a-notes", aliceData, 0); err != nil {
		t.Fatal(err)
	}
	if err := bob.Write(ctx, "/b-notes", bobData, 0); err != nil {
		t.Fatal(err)
	}

	// A working session: interleaved updates and dummy traffic.
	for i := 0; i < 150; i++ {
		off := uint64(rng.Intn(30)) * uint64(ps)
		chunk := rng.Bytes(ps)
		copy(aliceData[off:], chunk)
		if err := alice.Write(ctx, "/a-notes", chunk, off); err != nil {
			t.Fatal(err)
		}
		if _, err := agent.DummyUpdateBurst(1); err != nil {
			t.Fatal(err)
		}
	}

	// --- oblivious reads on top ----------------------------------------
	const bufCap, levels = 8, 3
	cacheDev := steghide.NewMemDevice(512+64, steghide.ObliviousFootprint(bufCap, levels))
	store, err := steghide.NewObliviousStore(steghide.ObliviousConfig{
		Dev:          cacheDev,
		Key:          steghide.DeriveKey([]byte("sess"), "cache"),
		BufferBlocks: bufCap,
		Levels:       levels,
		RNG:          prng.New([]byte("c")),
	})
	if err != nil {
		t.Fatal(err)
	}
	ofs, err := steghide.NewObliviousFS(store, vol, prng.New([]byte("f")))
	if err != nil {
		t.Fatal(err)
	}
	if err := ofs.Register(1, aliceFile); err != nil {
		t.Fatal(err)
	}
	through := make([]byte, len(aliceData))
	if _, err := ofs.ReadAt(1, through, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(through, aliceData) {
		t.Fatal("oblivious read does not match agent state")
	}

	// --- logout wipes the agent; fresh sessions recover everything ----
	if err := agent.Logout(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := agent.Logout(ctx, "bob"); err != nil {
		t.Fatal(err)
	}
	if agent.KnownBlocks() != 0 {
		t.Fatalf("agent retained %d blocks after logout", agent.KnownBlocks())
	}
	alice2, err := agent.Login("alice", "a-pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice2.Disclose("/a-notes"); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(aliceData))
	if _, err := alice2.Read("/a-notes", got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, aliceData) {
		t.Fatal("alice's data corrupted across the full stack")
	}
	bob2, err := agent.Login("bob", "b-pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob2.Disclose("/b-notes"); err != nil {
		t.Fatal(err)
	}
	gotB := make([]byte, len(bobData))
	if _, err := bob2.Read("/b-notes", gotB, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotB, bobData) {
		t.Fatal("bob's data corrupted across the full stack")
	}

	// --- what the attackers saw -----------------------------------------
	for i, tap := range taps {
		if tap.Len() == 0 {
			t.Fatalf("node %d tap saw nothing", i)
		}
	}
	// Node shares should be roughly even (striping a uniform stream).
	total := taps[0].Len() + taps[1].Len()
	share := float64(taps[0].Len()) / float64(total)
	if share < 0.35 || share > 0.65 {
		t.Fatalf("node 0 saw %.0f%% of traffic; striping skewed", share*100)
	}
	// Wrong-passphrase probing reveals nothing.
	if err := agent.Logout(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	adv, err := agent.Login("alice", "not-the-passphrase")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adv.Disclose("/a-notes"); err == nil {
		t.Fatal("adversary opened alice's file with a wrong passphrase")
	}
}

// TestDeterministicExperiments re-runs one experiment twice and
// demands bit-identical tables — the reproducibility guarantee the
// whole evaluation rests on.
func TestDeterministicExperiments(t *testing.T) {
	runOnce := func() string {
		var out bytes.Buffer
		e, err := experiments.Lookup("fig11a")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunAndPrint(experiments.QuickScale(), &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("experiment not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty experiment output")
	}
}
