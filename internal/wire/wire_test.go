package wire

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
	"steghide/internal/steghide"
)

func TestStorageServerRoundTrip(t *testing.T) {
	mem := blockdev.NewMem(256, 64)
	var tap blockdev.Collector
	srv := NewStorageServer(listen(t), mem, &tap)
	defer srv.Close()

	dev, err := DialStorage(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if dev.BlockSize() != 256 || dev.NumBlocks() != 64 {
		t.Fatalf("geometry %d/%d", dev.BlockSize(), dev.NumBlocks())
	}

	data := prng.NewFromUint64(1).Bytes(256)
	if err := dev.WriteBlock(7, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	if err := dev.ReadBlock(7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("remote roundtrip mismatch")
	}
	// The tap saw both operations — the attacker's wire view.
	if tap.Len() != 2 {
		t.Fatalf("tap saw %d events", tap.Len())
	}
	ev := tap.Events()
	if ev[0].Op != blockdev.OpWrite || ev[0].Block != 7 || ev[1].Op != blockdev.OpRead {
		t.Fatalf("tap events %+v", ev)
	}

	// Errors cross the wire as errors.
	if err := dev.ReadBlock(999, got); !errors.Is(err, ErrRemote) {
		t.Fatalf("out of range over wire: %v", err)
	}
	if err := dev.ReadBlock(1, got[:10]); err == nil {
		t.Fatal("short buffer accepted")
	}
	// Failed operations must not be visible on the tap.
	if tap.Len() != 2 {
		t.Fatal("failed op reached the tap")
	}
}

func TestStorageServerConcurrentClients(t *testing.T) {
	mem := blockdev.NewMem(128, 256)
	srv := NewStorageServer(listen(t), mem, nil)
	defer srv.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dev, err := DialStorage(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer dev.Close()
			rng := prng.NewFromUint64(uint64(w))
			for i := 0; i < 50; i++ {
				idx := uint64(w*64 + i%64)
				data := rng.Bytes(128)
				if err := dev.WriteBlock(idx, data); err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, 128)
				if err := dev.ReadBlock(idx, got); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, data) {
					t.Errorf("worker %d mismatch", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// newAgentFixture builds a full remote stack: storage server →
// remote device → volume → volatile agent → agent server.
func newAgentFixture(t *testing.T) (*AgentServer, func()) {
	t.Helper()
	mem := blockdev.NewMem(256, 2048)
	storageSrv := NewStorageServer(listen(t), mem, nil)
	remote, err := DialStorage(storageSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	vol, err := stegfs.Format(remote, stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("w")})
	if err != nil {
		t.Fatal(err)
	}
	agent := steghide.NewVolatile(vol, prng.NewFromUint64(5))
	agentSrv, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{"": agent}, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cleanup := func() {
		agentSrv.Close()
		remote.Close()
		storageSrv.Close()
	}
	return agentSrv, cleanup
}

func TestAgentOverWire(t *testing.T) {
	ctx := context.Background()
	srv, cleanup := newAgentFixture(t)
	defer cleanup()

	cli, err := DialAgent(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Operations before login fail.
	if err := cli.Create(ctx, "/x"); err == nil {
		t.Fatal("create before login accepted")
	}
	if err := cli.Login(ctx, "", "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := cli.Login(ctx, "", "alice", "pw"); err == nil {
		t.Fatal("double login accepted")
	}
	if err := cli.CreateDummy(ctx, "/cover", 64); err != nil {
		t.Fatal(err)
	}
	if err := cli.Create(ctx, "/secret"); err != nil {
		t.Fatal(err)
	}
	msg := prng.NewFromUint64(9).Bytes(700)
	if err := cli.WriteV(ctx, "/secret", false, Segment{Off: 0, Data: msg}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if n, err := cli.Read(ctx, "/secret", got, 0); err != nil || n != len(msg) {
		t.Fatalf("read %d, %v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("content mismatch over wire")
	}
	if err := cli.WriteV(ctx, "/secret", true); err != nil {
		t.Fatal(err)
	}
	if err := cli.Logout(ctx); err != nil {
		t.Fatal(err)
	}

	// A second session can disclose and read the file back.
	cli2, err := DialAgent(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	if err := cli2.Login(ctx, "", "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	isDummy, size, err := cli2.Disclose(ctx, "/secret")
	if err != nil {
		t.Fatal(err)
	}
	if isDummy || size != uint64(len(msg)) {
		t.Fatalf("disclose: dummy=%v size=%d", isDummy, size)
	}
	isDummy, _, err = cli2.Disclose(ctx, "/cover")
	if err != nil {
		t.Fatal(err)
	}
	if !isDummy {
		t.Fatal("cover file should disclose as dummy")
	}
	got2 := make([]byte, len(msg))
	if _, err := cli2.Read(ctx, "/secret", got2, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, msg) {
		t.Fatal("content lost across remote sessions")
	}
	if err := cli2.Logout(ctx); err != nil {
		t.Fatal(err)
	}
	// Wrong passphrase gives not-found on disclose (deniability).
	cli3, err := DialAgent(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli3.Close()
	if err := cli3.Login(ctx, "", "alice", "wrong"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli3.Disclose(ctx, "/secret"); err == nil {
		t.Fatal("wrong passphrase disclosed a file")
	}
}

func TestConnectionDropLogsOut(t *testing.T) {
	ctx := context.Background()
	srv, cleanup := newAgentFixture(t)
	defer cleanup()

	cli, err := DialAgent(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Login(ctx, "", "bob", "pw"); err != nil {
		t.Fatal(err)
	}
	cli.Close() // drop without logout

	// The server logs bob out once it notices the drop, so a fresh
	// login works — wait for that, however fast a refused login's round
	// trip has become.
	cli2, err := DialAgent(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	waitFor(t, "the dropped connection's session to be logged out", func() bool {
		return cli2.Login(ctx, "", "bob", "pw") == nil
	})
}
