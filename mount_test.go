package steghide_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"steghide"
	"steghide/internal/wire"
)

// TestMountBitIdentical proves the builder is pure convenience: a
// Mount-built Construction-2 stack driving the unified FS produces a
// volume byte-identical to the 6-step manual assembly driving the
// legacy session API, given the same seeds and the same operations.
func TestMountBitIdentical(t *testing.T) {
	const fillSeed = "bitident-fill"
	const agentSeed = "bitident-agent"
	payload := bytes.Repeat([]byte("identical bits "), 30)

	// Manual wiring, legacy API.
	manual := steghide.NewMemDevice(512, 4096)
	vol, err := steghide.Format(manual, steghide.FormatOptions{FillSeed: []byte(fillSeed)})
	if err != nil {
		t.Fatal(err)
	}
	agent := steghide.NewVolatileAgent(vol, steghide.NewPRNG([]byte(agentSeed)))
	sess, err := agent.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.CreateDummy("/cover", 128); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Create("/doc"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Write(context.Background(), "/doc", payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := sess.Save(context.Background(), "/doc"); err != nil {
		t.Fatal(err)
	}
	if err := agent.Logout(context.Background(), "alice"); err != nil {
		t.Fatal(err)
	}

	// Mount + unified FS.
	mounted := steghide.NewMemDevice(512, 4096)
	stack, err := steghide.Mount(mounted,
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte(fillSeed)}),
		steghide.WithConstruction2(),
		steghide.WithSeed([]byte(agentSeed)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fs, err := stack.Login("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CreateDummy(ctx, "/cover", 128); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create(ctx, "/doc"); err != nil {
		t.Fatal(err)
	}
	w, err := fs.OpenWrite(ctx, "/doc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // save, as the manual path did
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil { // logout
		t.Fatal(err)
	}
	if err := stack.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(manual.Snapshot(), mounted.Snapshot()) {
		t.Fatal("Mount-built stack diverged from manual wiring — the builder must be pure convenience")
	}
}

// TestMountC1BitIdentical is the Construction-1 counterpart.
func TestMountC1BitIdentical(t *testing.T) {
	payload := bytes.Repeat([]byte("c1 bits "), 24)
	secret := []byte("c1-secret")

	manual := steghide.NewMemDevice(512, 4096)
	vol, err := steghide.Format(manual, steghide.FormatOptions{FillSeed: []byte("c1-fill")})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := steghide.NewNonVolatileAgent(vol, secret, steghide.NewPRNG([]byte("c1-rng")))
	if err != nil {
		t.Fatal(err)
	}
	f, err := agent.Create("alice", "/doc")
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Write(context.Background(), "/doc", f, payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := agent.Close("/doc", f); err != nil {
		t.Fatal(err)
	}

	mounted := steghide.NewMemDevice(512, 4096)
	stack, err := steghide.Mount(mounted,
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("c1-fill")}),
		steghide.WithConstruction1(secret),
		steghide.WithSeed([]byte("c1-rng")))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fs, err := stack.Login("alice", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Create(ctx, "/doc"); err != nil {
		t.Fatal(err)
	}
	w, err := fs.OpenWrite(ctx, "/doc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil { // saves and closes /doc
		t.Fatal(err)
	}
	if err := stack.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(manual.Snapshot(), mounted.Snapshot()) {
		t.Fatal("C1 Mount-built stack diverged from manual wiring")
	}
}

// TestMountOptionsStack exercises the option set end to end: journal,
// daemon, trace, stripe, sim, fsck, close ordering.
func TestMountOptionsStack(t *testing.T) {
	ctx := context.Background()

	t.Run("journal+daemon+trace", func(t *testing.T) {
		tap := &steghide.Collector{}
		stack, err := steghide.Mount(steghide.NewMemDevice(4096, 2048),
			steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("opt")}),
			steghide.WithJournal("admin-pass"),
			steghide.WithDaemon(time.Millisecond),
			steghide.WithTrace(tap),
			steghide.WithSeed([]byte("opt-agent")))
		if err != nil {
			t.Fatal(err)
		}
		if stack.Volume().JournalBlocks() == 0 {
			t.Fatal("WithJournal+WithFormat must reserve a ring")
		}
		if stack.Daemon() == nil {
			t.Fatal("daemon not started")
		}
		fs, err := stack.Login("u", "p")
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.CreateDummy(ctx, "/cover", 64); err != nil {
			t.Fatal(err)
		}
		if err := steghide.WriteFile(ctx, fs, "/f", []byte("journaled")); err != nil {
			t.Fatal(err)
		}
		got, err := steghide.ReadFile(ctx, fs, "/f")
		if err != nil || string(got) != "journaled" {
			t.Fatalf("read back %q err=%v", got, err)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		// Fsck: the ring verifies; the logout saved every header, so no
		// unreplayed intents remain.
		_, jrep, err := stack.Fsck(nil)
		if err != nil {
			t.Fatal(err)
		}
		if jrep == nil || !jrep.Ok() {
			t.Fatalf("journal fsck: %v", jrep)
		}
		if err := stack.Close(); err != nil {
			t.Fatal(err)
		}
		if tap.Len() == 0 {
			t.Fatal("trace tap saw no traffic")
		}
	})

	t.Run("stripe+sim", func(t *testing.T) {
		members := []steghide.Device{
			steghide.NewMemDevice(512, 1024),
			steghide.NewMemDevice(512, 1024),
			steghide.NewMemDevice(512, 1024),
			steghide.NewMemDevice(512, 1024),
		}
		stack, err := steghide.Mount(nil,
			steghide.WithStripe(members...),
			steghide.WithSim(),
			steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("stripe")}),
			steghide.WithSeed([]byte("stripe-agent")))
		if err != nil {
			t.Fatal(err)
		}
		fs, err := stack.Login("u", "p")
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.CreateDummy(ctx, "/cover", 64); err != nil {
			t.Fatal(err)
		}
		if err := steghide.WriteFile(ctx, fs, "/f", []byte("striped")); err != nil {
			t.Fatal(err)
		}
		got, err := steghide.ReadFile(ctx, fs, "/f")
		if err != nil || string(got) != "striped" {
			t.Fatalf("read back %q err=%v", got, err)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		if err := stack.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("close-logs-out-open-sessions", func(t *testing.T) {
		stack, err := steghide.Mount(steghide.NewMemDevice(512, 2048),
			steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("close")}),
			steghide.WithSeed([]byte("close-agent")))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stack.Login("left-open", "p"); err != nil {
			t.Fatal(err)
		}
		if err := stack.Close(); err != nil {
			t.Fatal(err)
		}
		if n := stack.Agent2().KnownBlocks(); n != 0 {
			t.Fatalf("stack close left %d blocks known — sessions must not outlive the stack", n)
		}
	})

	t.Run("option-errors", func(t *testing.T) {
		if _, err := steghide.Mount(nil); err == nil {
			t.Fatal("nil device accepted")
		}
		if _, err := steghide.Mount(steghide.NewMemDevice(512, 64),
			steghide.WithConstruction1(nil)); err == nil {
			t.Fatal("empty C1 secret accepted")
		}
		if _, err := steghide.Mount(steghide.NewMemDevice(512, 2048),
			steghide.WithFormat(steghide.FormatOptions{}),
			steghide.WithObliviousCache(8, 3)); err == nil {
			t.Fatal("oblivious cache without C1 accepted")
		}
		if _, err := steghide.Mount(steghide.NewMemDevice(512, 64),
			steghide.WithStripe(steghide.NewMemDevice(512, 64))); err == nil {
			t.Fatal("device + stripe accepted")
		}
	})
}

// TestFSConcurrentControlPlane pins the locking of the FS lookup path
// (Session.Open) against control-plane mutations: concurrent Create /
// OpenRead / Stat on one FS must be race-free (caught by the -race CI
// job).
func TestFSConcurrentControlPlane(t *testing.T) {
	stack, err := steghide.Mount(steghide.NewMemDevice(512, 4096),
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("conc")}),
		steghide.WithSeed([]byte("conc-agent")))
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	fs, err := stack.Login("u", "p")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ctx := context.Background()
	if err := fs.CreateDummy(ctx, "/cover", 256); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := fmt.Sprintf("/f%d", i)
			if err := fs.Create(ctx, p); err != nil {
				t.Error(err)
				return
			}
			w, err := fs.OpenWrite(ctx, p)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := w.WriteAt([]byte("payload"), 0); err != nil {
				t.Error(err)
				return
			}
			if err := w.Close(); err != nil {
				t.Error(err)
				return
			}
			if _, err := fs.Stat(ctx, p); err != nil {
				t.Error(err)
			}
			if _, err := fs.OpenRead(ctx, p); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

// TestWireSentinelRoundTrip pins the satellite contract directly at
// the client layer: remote failures carry their sentinel across the
// wire instead of collapsing to strings.
func TestWireSentinelRoundTrip(t *testing.T) {
	ctx := context.Background()
	stack, err := steghide.Mount(steghide.NewMemDevice(512, 2048),
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("wires")}),
		steghide.WithSeed([]byte("wires-agent")))
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	srv, err := steghide.NewServer(steghide.ServerConfig{Addr: "127.0.0.1:0"}, stack)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := steghide.DialAgent(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Login(ctx, "", "u", "p"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Disclose(ctx, "/missing"); !errors.Is(err, steghide.ErrNotFound) {
		t.Fatalf("disclose missing over the wire: want ErrNotFound, got %v", err)
	}
	if err := cli.Create(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	// No dummy space disclosed yet: the update algorithm cannot hide
	// the write, and the client must see the same sentinel a local
	// caller would.
	if err := cli.WriteV(ctx, "/f", wire.Then{}, wire.Segment{Data: []byte("x")}); !errors.Is(err, steghide.ErrNoDummySpace) {
		t.Fatalf("write without dummies over the wire: want ErrNoDummySpace, got %v", err)
	}
	if err := cli.Logout(ctx); err != nil {
		t.Fatal(err)
	}
}
