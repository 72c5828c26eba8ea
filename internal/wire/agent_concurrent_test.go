package wire

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
	"steghide/internal/steghide"
)

// TestAgentServerConcurrentSessions exercises the whole remote stack
// with several users writing simultaneously: each client's file must
// come back intact, proving the server no longer lock-steps sessions.
// Run with -race.
func TestAgentServerConcurrentSessions(t *testing.T) {
	ctx := context.Background()
	vol, err := stegfs.Format(blockdev.NewMem(256, 4096),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("wc")})
	if err != nil {
		t.Fatal(err)
	}
	agent := steghide.NewVolatile(vol, prng.NewFromUint64(41))
	srv, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{"": agent}, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const nClients = 4
	const writes = 15
	ps := vol.PayloadSize()

	type rig struct {
		cli     *Client
		content []byte
	}
	rigs := make([]*rig, nClients)
	for i := range rigs {
		cli, err := DialAgent(ctx, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Login(ctx, "", fmt.Sprintf("u%d", i), fmt.Sprintf("pw-%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := cli.CreateDummy(ctx, "/d", 100); err != nil {
			t.Fatal(err)
		}
		if err := cli.Create(ctx, "/f"); err != nil {
			t.Fatal(err)
		}
		content := prng.NewFromUint64(uint64(10 + i)).Bytes(6 * ps)
		if err := cli.WriteV(ctx, "/f", Then{}, Segment{Off: 0, Data: content}); err != nil {
			t.Fatal(err)
		}
		rigs[i] = &rig{cli: cli, content: content}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, nClients)
	for i, r := range rigs {
		wg.Add(1)
		go func(i int, r *rig) {
			defer wg.Done()
			rng := prng.NewFromUint64(uint64(400 + i))
			for k := 0; k < writes; k++ {
				li := rng.Intn(6)
				chunk := rng.Bytes(ps)
				copy(r.content[li*ps:], chunk)
				if err := r.cli.WriteV(ctx, "/f", Then{}, Segment{Off: uint64(li * ps), Data: chunk}); err != nil {
					errCh <- err
					return
				}
			}
		}(i, r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	for i, r := range rigs {
		got := make([]byte, len(r.content))
		if _, err := r.cli.Read(ctx, "/f", got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, r.content) {
			t.Fatalf("client %d content corrupted by concurrent sessions", i)
		}
		if err := r.cli.Logout(ctx); err != nil {
			t.Fatal(err)
		}
		if err := r.cli.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
