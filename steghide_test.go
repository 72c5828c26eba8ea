package steghide_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"steghide"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
	isteg "steghide/internal/steghide"
	"steghide/internal/wire"
)

// TestPublicAPIEndToEnd drives the whole stack through the facade the
// way a downstream user would: format, both agents, oblivious cache,
// attackers, and the wire layer.
func TestPublicAPIEndToEnd(t *testing.T) {
	ctx := context.Background()
	dev := steghide.NewMemDevice(512, 4096)
	vol, err := steghide.Format(dev, steghide.FormatOptions{FillSeed: []byte("api")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stegfs.Open(dev, prng.New([]byte("reopen"))); err != nil {
		t.Fatal(err)
	}

	agent := isteg.NewVolatile(vol, prng.New([]byte("a")))
	s, err := agent.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDummy("/cover", 128); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/f"); err != nil {
		t.Fatal(err)
	}
	msg := []byte("through the facade")
	if err := s.Write(ctx, "/f", msg, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := s.Read("/f", got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("facade roundtrip mismatch")
	}
	if _, err := agent.DummyUpdateBurst(1); err != nil {
		t.Fatal(err)
	}
	if err := agent.Logout(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPINonVolatileAgent(t *testing.T) {
	dev := steghide.NewMemDevice(512, 2048)
	vol, err := steghide.Format(dev, steghide.FormatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := isteg.NewNonVolatile(vol, []byte("agent secret"), prng.New([]byte("r")))
	if err != nil {
		t.Fatal(err)
	}
	f, err := agent.Create("alice", "/doc")
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Write(context.Background(), "/doc", f, []byte("c1"), 0); err != nil {
		t.Fatal(err)
	}
	if err := agent.Close("/doc", f); err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Open("alice", "/missing"); !errors.Is(err, steghide.ErrNotFound) {
		t.Fatalf("missing open: %v", err)
	}
}

func TestPublicAPIObliviousCache(t *testing.T) {
	dev := steghide.NewMemDevice(512, 2048)
	vol, err := steghide.Format(dev, steghide.FormatOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A hidden file via a direct FAK (power-user path).
	fak := steghide.DeriveFAK("alice", "/ws", vol)
	_ = fak

	agent := isteg.NewVolatile(vol, prng.New([]byte("v")))
	s, err := agent.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDummy("/d", 128); err != nil {
		t.Fatal(err)
	}
	f, err := s.Create("/ws")
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("x"), 20*vol.PayloadSize())
	if err := s.Write(context.Background(), "/ws", content, 0); err != nil {
		t.Fatal(err)
	}

	const bufCap, levels = 8, 3
	cacheDev := steghide.NewMemDevice(512+64, steghide.ObliviousFootprint(bufCap, levels))
	store, err := steghide.NewObliviousStore(steghide.ObliviousConfig{
		Dev:          cacheDev,
		Key:          steghide.DeriveKey([]byte("session"), "cache"),
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
	if err := ofs.Register(1, f); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(content))
	if _, err := ofs.ReadAt(1, out, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, content) {
		t.Fatal("oblivious read mismatch via facade")
	}
}

func TestPublicAPIAttackersAndWire(t *testing.T) {
	ctx := context.Background()
	tap := &steghide.Collector{}
	raw := steghide.NewMemDevice(512, 1024)
	if _, err := steghide.Format(raw, steghide.FormatOptions{}); err != nil {
		t.Fatal(err)
	}
	srv, err := steghide.NewStorageServer("127.0.0.1:0", raw, tap)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := steghide.DialStorage(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	stack, err := steghide.Mount(remote, steghide.WithSeed([]byte("w")))
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	asrv, err := steghide.NewServer(steghide.ServerConfig{Addr: "127.0.0.1:0"}, stack)
	if err != nil {
		t.Fatal(err)
	}
	defer asrv.Close()
	cli, err := steghide.DialAgent(asrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Login(ctx, "", "u", "p"); err != nil {
		t.Fatal(err)
	}
	if err := cli.CreateDummy(ctx, "/d", 32); err != nil {
		t.Fatal(err)
	}
	if err := cli.Create(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	if err := cli.WriteV(ctx, "/f", wire.Then{}, wire.Segment{Data: []byte("wire")}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Logout(ctx); err != nil {
		t.Fatal(err)
	}
	if tap.Len() == 0 {
		t.Fatal("tap saw nothing")
	}
	ua := steghide.NewUpdateAnalyzer(512, 1024)
	if err := ua.Observe(raw.Snapshot()); err != nil {
		t.Fatal(err)
	}
	ta := steghide.NewTrafficAnalyzer(raw.NumBlocks())
	if repeats, distinct := ta.RepeatedReads(tap.Events()); distinct == 0 && repeats == 0 {
		t.Fatal("traffic analyzer saw no reads")
	}
}
