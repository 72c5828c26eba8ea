package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
	"steghide/internal/steghide"
)

// slowDevice wraps a device so every batch, a single block included,
// costs a fixed latency (like one seek) — an RTT-bound backend that
// makes pipelining visible even on a single CPU.
type slowDevice struct {
	blockdev.Device
	delay time.Duration
}

func (s *slowDevice) ReadBlocks(start uint64, bufs [][]byte) error {
	time.Sleep(s.delay)
	return s.Device.ReadBlocks(start, bufs)
}

func (s *slowDevice) WriteBlocks(start uint64, data [][]byte) error {
	time.Sleep(s.delay)
	return s.Device.WriteBlocks(start, data)
}

func (s *slowDevice) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	time.Sleep(s.delay)
	return s.Device.ReadBlocksAt(idx, bufs)
}

func (s *slowDevice) WriteBlocksAt(idx []uint64, data [][]byte) error {
	time.Sleep(s.delay)
	return s.Device.WriteBlocksAt(idx, data)
}

// --- negotiation matrix ------------------------------------------------

// interopStorage runs the storage protocol over a negotiated
// connection.
func interopStorage(t *testing.T) {
	t.Helper()
	mem := blockdev.NewMem(256, 64)
	srv := NewStorageServer(listen(t), mem, nil)
	defer srv.Close()

	dev, err := DialStorage(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	data := prng.NewFromUint64(7).Bytes(256)
	if err := blockdev.WriteBlock(dev, 9, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	if err := blockdev.ReadBlock(dev, 9, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip mismatch")
	}
	// Batches ride the same connection (they chunk by the negotiated
	// limit).
	bufs := blockdev.AllocBlocks(8, 256)
	if err := dev.ReadBlocks(4, bufs); err != nil {
		t.Fatal(err)
	}
}

// interopAgent runs the agent protocol over a negotiated connection.
func interopAgent(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	srv, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{"": testAgent(t, 5)}, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := DialAgent(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Login(ctx, "", "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := cli.CreateDummy(ctx, "/d", 32); err != nil {
		t.Fatal(err)
	}
	if err := cli.Create(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	msg := prng.NewFromUint64(9).Bytes(500)
	if err := cli.WriteV(ctx, "/f", Then{}, Segment{Off: 0, Data: msg}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if n, err := cli.Read(ctx, "/f", got, 0); err != nil || n != len(msg) {
		t.Fatalf("read %d, %v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("content mismatch")
	}
	// Error taxonomy must survive the wire.
	if _, _, err := cli.Disclose(ctx, "/nope"); !errors.Is(err, stegfs.ErrNotFound) {
		t.Fatalf("want ErrNotFound across the wire, got %v", err)
	}
	if err := cli.Logout(ctx); err != nil {
		t.Fatal(err)
	}
}

// refusedByServer plays a pre-hello (v1) client against addr in raw
// frames: whatever it opens with — a plain request, a request too big
// to be a hello, a hello offering version 1 — the server must answer
// exactly one error frame that decodes to ErrProtoVersion and then
// close.
func refusedByServer(t *testing.T, addr string, opening frame) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // test bound
	if err := writeFrame(conn, opening); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(conn, maxBodySize)
	if err != nil {
		t.Fatalf("opening %#x: no answer: %v", opening.Type, err)
	}
	if resp.Type != msgErr || resp.ID != opening.ID {
		t.Fatalf("opening %#x: answered type %#x id %d", opening.Type, resp.Type, resp.ID)
	}
	if err := decodeRemoteError(resp.Body); !errors.Is(err, ErrProtoVersion) || !errors.Is(err, ErrRemote) {
		t.Fatalf("opening %#x: want ErrProtoVersion from the peer, got %v", opening.Type, err)
	}
	if f, err := readFrame(conn, maxBodySize); !errors.Is(err, io.EOF) {
		t.Fatalf("opening %#x: want close after the error frame, got frame %#x, %v", opening.Type, f.Type, err)
	}
}

// v1Server plays a server from before the hello frame, in raw frames:
// it answers the first frame of each connection the way protocol v1
// answered any type it did not know (or, with helloV1, with a hello
// pinning version 1) and hangs up.
func v1Server(t *testing.T, helloV1 bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			first, err := readFrame(conn, maxBodySize)
			if err == nil {
				reply := errFrame(fmt.Errorf("wire: unknown message type %#x", first.Type))
				if helloV1 {
					reply = helloFrame(1, maxBodySize)
				}
				reply.ID = first.ID
				writeFrame(conn, reply) //nolint:errcheck // the dialer's error is the assertion
			}
			conn.Close()
		}
	}()
	return ln.Addr().String()
}

// TestInteropMatrix pins what each pairing of protocol generations
// does now that lock-step v1 is gone: v2 peers negotiate the mux; a
// v1 client (no hello, or one offering version 1) gets one typed error
// frame and a close from either server; either dialer fails with
// ErrProtoVersion against a v1 server. Nothing falls back.
func TestInteropMatrix(t *testing.T) {
	t.Run("storage/v2-client/v2-server", interopStorage)
	t.Run("agent/v2-client/v2-server", interopAgent)

	oldHello := helloFrame(1, maxBodySize)
	oldHello.ID = 3
	e := &encoder{}
	login := e.str("alice").str("pw").frame(msgLogin)
	t.Run("storage/v1-client/v2-server", func(t *testing.T) {
		srv := NewStorageServer(listen(t), blockdev.NewMem(256, 64), nil)
		defer srv.Close()
		refusedByServer(t, srv.Addr(), frame{Type: msgDevInfo})
		// A v1 client's first frame could be a whole batch write.
		refusedByServer(t, srv.Addr(), frame{Type: msgWriteBlocks, Body: make([]byte, 16+4*256)})
		refusedByServer(t, srv.Addr(), oldHello)
	})
	t.Run("agent/v1-client/v2-server", func(t *testing.T) {
		srv, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{"": testAgent(t, 6)}, ServeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		refusedByServer(t, srv.Addr(), login)
		refusedByServer(t, srv.Addr(), oldHello)
	})
	// Two kinds of old server: one that never heard of hello, one that
	// answers it pinning version 1.
	oldServers := []string{v1Server(t, false), v1Server(t, true)}
	t.Run("storage/v2-client/v1-server", func(t *testing.T) {
		for _, addr := range oldServers {
			if dev, err := DialStorage(addr); !errors.Is(err, ErrProtoVersion) {
				t.Fatalf("want ErrProtoVersion, got %v, %v", dev, err)
			}
		}
	})
	t.Run("agent/v2-client/v1-server", func(t *testing.T) {
		for _, addr := range oldServers {
			if cli, err := DialAgent(context.Background(), addr); !errors.Is(err, ErrProtoVersion) {
				t.Fatalf("want ErrProtoVersion, got %v, %v", cli, err)
			}
			// The refusal is final: the retry layer does not redial it.
			_, err := DialAgentRetry(context.Background(), quickRetry(), addr)
			if !errors.Is(err, ErrProtoVersion) {
				t.Fatalf("retry dial: want ErrProtoVersion, got %v", err)
			}
		}
	})
}

// TestMultiVolumeServing pins the tentpole's fleet mode: one daemon,
// several independent volumes, routed by the login's volume name.
func TestMultiVolumeServing(t *testing.T) {
	ctx := context.Background()
	mkAgent := func(seed string) *steghide.VolatileAgent {
		vol, err := stegfs.Format(blockdev.NewMem(256, 2048),
			stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte(seed)})
		if err != nil {
			t.Fatal(err)
		}
		return steghide.NewVolatile(vol, prng.New([]byte(seed)))
	}
	srv, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{
		"":     mkAgent("default"),
		"red":  mkAgent("red"),
		"blue": mkAgent("blue"),
	}, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.Volumes(); len(got) != 3 {
		t.Fatalf("volumes %v", got)
	}

	store := func(volume, path string, msg []byte) {
		cli, err := DialAgent(ctx, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if err := cli.Login(ctx, volume, "alice", "pw"); err != nil {
			t.Fatal(err)
		}
		if err := cli.CreateDummy(ctx, "/d", 16); err != nil {
			t.Fatal(err)
		}
		if err := cli.Create(ctx, path); err != nil {
			t.Fatal(err)
		}
		if err := cli.WriteV(ctx, path, Then{}, Segment{Off: 0, Data: msg}); err != nil {
			t.Fatal(err)
		}
		if err := cli.WriteV(ctx, path, Then{Save: true}); err != nil {
			t.Fatal(err)
		}
		if err := cli.Logout(ctx); err != nil {
			t.Fatal(err)
		}
	}
	redMsg := []byte("red volume secret")
	blueMsg := []byte("blue volume secret")
	store("red", "/s", redMsg)
	store("blue", "/s", blueMsg)

	// Same user, same path, different volumes: different files.
	check := func(volume string, want []byte) {
		cli, err := DialAgent(ctx, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if err := cli.Login(ctx, volume, "alice", "pw"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cli.Disclose(ctx, "/s"); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := cli.Read(ctx, "/s", got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("volume %q served %q, want %q", volume, got, want)
		}
		// Log out in line: the drop alone logs out too, but only once
		// the server notices it, and alice logs into red again below.
		if err := cli.Logout(ctx); err != nil {
			t.Fatal(err)
		}
	}
	check("red", redMsg)
	check("blue", blueMsg)

	// The default volume never saw /s.
	cli, err := DialAgent(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Login(ctx, "", "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Disclose(ctx, "/s"); !errors.Is(err, stegfs.ErrNotFound) {
		t.Fatalf("default volume leaked another volume's file: %v", err)
	}

	// An unknown volume is a typed, sentinel-coded failure.
	cli2, err := DialAgent(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	if err := cli2.Login(ctx, "green", "alice", "pw"); !errors.Is(err, ErrUnknownVolume) {
		t.Fatalf("want ErrUnknownVolume, got %v", err)
	}
	// The failed login must not poison the connection (no latch).
	if err := cli2.Login(ctx, "red", "alice", "pw"); err != nil {
		t.Fatal(err)
	}
}

// TestFrameSizeLimit pins the negotiated max-frame bound: a declared
// body over the limit is rejected with the typed error before any
// allocation.
func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{Type: msgOK, Body: make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(&buf, 1024); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("want ErrFrameTooBig, got %v", err)
	}
	// A hostile header declaring a huge length fails identically —
	// without the length check this would try to allocate 2^50 bytes.
	hostile := make([]byte, headerSize)
	hostile[8] = 0x04 // length = 2^50
	if _, err := readFrame(bytes.NewReader(hostile), maxBodySize); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("want ErrFrameTooBig for hostile length, got %v", err)
	}
	// Under the limit passes.
	buf.Reset()
	if err := writeFrame(&buf, frame{Type: msgOK, ID: 42, Body: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(&buf, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != msgOK || f.ID != 42 || string(f.Body) != "ok" {
		t.Fatalf("frame %+v", f)
	}
}

// TestNegotiatedLimitChunksBatches proves a small server-side frame
// limit propagates through the hello and the client chunks its
// batches accordingly instead of tripping the bound.
func TestNegotiatedLimitChunksBatches(t *testing.T) {
	mem := blockdev.NewMem(512, 256)
	// 8 KiB limit: a 64-block batch cannot fit one frame.
	srv := newStorageServer(listen(t), mem, nil, 8<<10)
	defer srv.Close()

	dev, err := DialStorage(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if dev.frameLimit != 8<<10 {
		t.Fatalf("negotiated limit %d, want %d", dev.frameLimit, 8<<10)
	}
	data := blockdev.AllocBlocks(64, 512)
	for i, b := range data {
		for j := range b {
			b[j] = byte(i ^ j)
		}
	}
	if err := dev.WriteBlocks(0, data); err != nil {
		t.Fatal(err)
	}
	got := blockdev.AllocBlocks(64, 512)
	if err := dev.ReadBlocks(0, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(got[i], data[i]) {
			t.Fatalf("chunked batch diverges at %d", i)
		}
	}
}

// TestOversizedRequestRefusedLocally: a request body over the
// negotiated limit is refused client-side with the typed error before
// anything hits the wire — the connection (and its other in-flight
// calls) stays healthy instead of being torn down by the peer's
// frame-bound rejection.
func TestOversizedRequestRefusedLocally(t *testing.T) {
	mem := blockdev.NewMem(512, 64)
	srv := newStorageServer(listen(t), mem, nil, 8<<10)
	defer srv.Close()
	dev, err := DialStorage(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	huge := frame{Type: msgWriteBlocksAt, Body: make([]byte, 16<<10)}
	if _, err := dev.do(context.Background(), huge, false); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("want ErrFrameTooBig, got %v", err)
	}
	// The connection still works.
	buf := make([]byte, 512)
	if err := blockdev.ReadBlock(dev, 1, buf); err != nil {
		t.Fatalf("connection unhealthy after refused request: %v", err)
	}
}

// --- cancellation under load -------------------------------------------

// TestCancelUnderLoad is the tentpole's cancellation contract: 64
// concurrent in-flight calls on one connection, half cancelled
// mid-flight; the survivors complete correctly and the connection
// stays healthy — no broken latch, next call works.
func TestCancelUnderLoad(t *testing.T) {
	slow := &slowDevice{Device: blockdev.NewMem(256, 4096), delay: 2 * time.Millisecond}
	vol, err := stegfs.Format(slow, stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("cul")})
	if err != nil {
		t.Fatal(err)
	}
	agent := steghide.NewVolatile(vol, prng.NewFromUint64(11))
	srv, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{"": agent}, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := DialAgent(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Login(context.Background(), "", "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := cli.CreateDummy(context.Background(), "/d", 64); err != nil {
		t.Fatal(err)
	}
	if err := cli.Create(context.Background(), "/f"); err != nil {
		t.Fatal(err)
	}
	ps := vol.PayloadSize()
	content := prng.NewFromUint64(12).Bytes(4 * ps)
	if err := cli.WriteV(context.Background(), "/f", Then{}, Segment{Off: 0, Data: content}); err != nil {
		t.Fatal(err)
	}

	const calls = 64
	type result struct {
		canceled bool
		err      error
		got      []byte
	}
	results := make([]result, calls)
	cancels := make([]context.CancelFunc, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		wg.Add(1)
		go func(i int, ctx context.Context) {
			defer wg.Done()
			buf := make([]byte, ps)
			off := uint64(i%4) * uint64(ps)
			_, err := cli.Read(ctx, "/f", buf, off)
			results[i] = result{canceled: i%2 == 1, err: err, got: buf}
		}(i, ctx)
	}
	// Let the pool fill, then cancel every odd call mid-flight.
	time.Sleep(5 * time.Millisecond)
	for i := 1; i < calls; i += 2 {
		cancels[i]()
	}
	wg.Wait()
	for i := 0; i < calls; i += 2 {
		cancels[i]()
	}

	for i, r := range results {
		if errors.Is(r.err, ErrConnBroken) {
			t.Fatalf("call %d hit the broken latch: %v", i, r.err)
		}
		if r.canceled {
			// A cancelled call either reports the cancellation or — if
			// its reply won the race — nothing; it must never report a
			// transport fault.
			if r.err != nil && !errors.Is(r.err, context.Canceled) {
				t.Fatalf("cancelled call %d: %v", i, r.err)
			}
			continue
		}
		if r.err != nil {
			t.Fatalf("surviving call %d failed: %v", i, r.err)
		}
		off := (i % 4) * ps
		if !bytes.Equal(r.got, content[off:off+ps]) {
			t.Fatalf("surviving call %d read wrong content", i)
		}
	}

	// The connection is still healthy: fresh calls work, no redial.
	buf := make([]byte, ps)
	if _, err := cli.Read(context.Background(), "/f", buf, 0); err != nil {
		t.Fatalf("connection unhealthy after cancellations: %v", err)
	}
	if !bytes.Equal(buf, content[:ps]) {
		t.Fatal("post-cancel read returned wrong content")
	}
	if err := cli.Logout(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// --- pipelined vs one at a time ----------------------------------------

// runReads drives total single-block reads from depth goroutines.
func runReads(t *testing.T, dev *RemoteDevice, depth, total int) time.Duration {
	t.Helper()
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, depth)
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, dev.BlockSize())
			for i := w; i < total; i += depth {
				if err := blockdev.ReadBlock(dev, uint64(i%64), buf); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestPipelineSpeedup asserts the pipelining bound on an RTT-bound
// backend: with a per-op device latency dominating the cost (the Sim
// role — on a small container CPU-bound crypto would flatten a
// Mem-only comparison), 8 callers sharing one connection must finish
// the same reads ≥3× sooner than one caller issuing them one at a
// time. The nominal ratio is ~8 (the in-flight bound); 3 leaves CI
// scheduling plenty of slack.
func TestPipelineSpeedup(t *testing.T) {
	slow := &slowDevice{Device: blockdev.NewMem(256, 64), delay: 2 * time.Millisecond}
	srv := NewStorageServer(listen(t), slow, nil)
	defer srv.Close()
	dev, err := DialStorage(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	const depth, total = 8, 96
	serial := runReads(t, dev, 1, total)
	pipelined := runReads(t, dev, depth, total)

	ratio := float64(serial) / float64(pipelined)
	t.Logf("depth 1 %v, depth %d %v: %.1fx", serial, depth, pipelined, ratio)
	if ratio < 3 {
		t.Fatalf("pipelining speedup %.2fx < 3x (depth 1 %v, depth %d %v)", ratio, serial, depth, pipelined)
	}
}

// TestV2SingleConnOrdering: one goroutine's sequential calls on a
// multiplexed connection still observe their own writes (each call completes
// before the next is issued, pipelining or not).
func TestV2SingleConnOrdering(t *testing.T) {
	mem := blockdev.NewMem(128, 32)
	srv := NewStorageServer(listen(t), mem, nil)
	defer srv.Close()
	dev, err := DialStorage(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	buf := make([]byte, 128)
	for i := 0; i < 20; i++ {
		data := prng.NewFromUint64(uint64(i)).Bytes(128)
		if err := blockdev.WriteBlock(dev, 3, data); err != nil {
			t.Fatal(err)
		}
		if err := blockdev.ReadBlock(dev, 3, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("iteration %d: read does not see own write", i)
		}
	}
}
