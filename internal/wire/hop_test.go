package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"steghide/internal/blockdev"
	"steghide/internal/mempool"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
	"steghide/internal/steghide"
)

// This file pins the shape of one wire hop: every frame is one Write,
// the caller writes its own request (so a caller that never got the
// socket provably wrote nothing, and a request buffer recycled on
// return was never read by anyone else), and the server goroutine that
// reads a request serves and answers it while another one is already
// back on the socket.

// tapConn records each Write made on a connection: the frame type its
// first bytes declare, and whether the Write was one whole frame —
// header and exactly the body length the header declares. Armed with
// a gate, a Write parks on it (already recorded) before it reaches the
// socket.
type tapConn struct {
	net.Conn
	gate chan struct{} // nil: no parking

	mu     sync.Mutex
	types  []uint32
	broken []string // writes that were not one whole frame
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if len(p) < headerSize || uint64(len(p)) != headerSize+binary.BigEndian.Uint64(p[8:]) {
		c.broken = append(c.broken, fmt.Sprintf("write %d of %d bytes", len(c.types), len(p)))
	}
	if len(p) >= 4 {
		c.types = append(c.types, binary.BigEndian.Uint32(p))
	}
	gate := c.gate
	c.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return c.Conn.Write(p)
}

func (c *tapConn) wrote() (types []uint32, broken []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.types), slices.Clone(c.broken)
}

// tapListener hands out tapConns and keeps them for inspection.
type tapListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*tapConn
}

func (l *tapListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: conn}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

func (l *tapListener) only(t *testing.T) *tapConn {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.conns) != 1 {
		t.Fatalf("server accepted %d connections, want 1", len(l.conns))
	}
	return l.conns[0]
}

// dialTapped dials addr and runs the hello over a tapConn.
func dialTapped(t *testing.T, addr string) (*muxConn, *tapConn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tc := &tapConn{Conn: conn}
	m, err := newMux(context.Background(), tc, maxBodySize)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { m.close() })
	return m, tc
}

// gateDevice parks every single-block read (a scattered batch of one)
// on a gate after announcing it — a handler the test can hold
// mid-flight.
type gateDevice struct {
	*blockdev.Mem
	entered chan struct{}
	gate    chan struct{}
}

func (g *gateDevice) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	if len(idx) == 1 {
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.Mem.ReadBlocksAt(idx, bufs)
}

// checkOneWritePerFrame asserts both ends' Writes were whole frames:
// of the expected types in order on the client, of the expected number
// on the server (replies complete in any order).
func checkOneWritePerFrame(t *testing.T, cli, srv *tapConn, wantCli []uint32, wantSrvWrites int) {
	t.Helper()
	types, broken := cli.wrote()
	if len(broken) > 0 {
		t.Errorf("client: %d writes were not one whole frame: %v", len(broken), broken)
	}
	if !slices.Equal(types, wantCli) {
		t.Errorf("client wrote frame types %#x, want %#x", types, wantCli)
	}
	stypes, sbroken := srv.wrote()
	if len(sbroken) > 0 {
		t.Errorf("server: %d writes were not one whole frame: %v", len(sbroken), sbroken)
	}
	if len(stypes) != wantSrvWrites {
		t.Errorf("server made %d writes (%#x), want %d", len(stypes), stypes, wantSrvWrites)
	}
}

// TestOneWritePerFrameStorage drives every message type of the storage
// protocol, a cancel, a ping, an error reply and the drain's goaway
// over tapped connections: client writes = requests + cancels, server
// writes = replies + goaway, each exactly one whole frame.
func TestOneWritePerFrameStorage(t *testing.T) {
	const bs, n = 4096, 256
	gd := &gateDevice{Mem: blockdev.NewMem(bs, n), entered: make(chan struct{}, 1), gate: make(chan struct{})}
	ln := &tapListener{Listener: listen(t)}
	srv := NewStorageServer(ln, gd, nil)
	m, cli := dialTapped(t, srv.Addr())
	dev, err := newRemoteDevice(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{msgHello, msgDevInfo}

	blocks := blockdev.AllocBlocks(64, bs)
	idx := make([]uint64, 64)
	for i := range idx {
		idx[i] = uint64((i * 37) % n)
	}
	if err := blockdev.WriteBlock(dev, 1, blocks[0]); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteBlocks(0, blocks); err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadBlocks(0, blocks); err != nil { // a 64-block batch reply
		t.Fatal(err)
	}
	if err := dev.WriteBlocksAt(idx, blocks); err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadBlocksAt(idx, blocks); err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadBlocks(n-1, blocks[:2]); !errors.Is(err, ErrRemote) { // an error reply
		t.Fatalf("out-of-range batch: %v", err)
	}
	if _, err := m.call(context.Background(), frame{Type: msgPing}); err != nil {
		t.Fatal(err)
	}
	want = append(want, msgWriteBlocksAt, msgWriteBlocks, msgReadBlocks, msgWriteBlocksAt, msgReadBlocksAt, msgReadBlocks, msgPing)

	// A single-block read parked in its handler, cancelled there: the
	// cancel is one more client Write, and the request still answers.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		e := &encoder{}
		_, err := m.call(ctx, e.u64(1).u64(3).frame(msgReadBlocksAt))
		errc <- err
	}()
	<-gd.entered
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read: %v", err)
	}
	close(gd.gate)
	want = append(want, msgReadBlocksAt, msgCancel)
	if err := blockdev.ReadBlock(dev, 2, blocks[0]); err != nil { // and one that completes
		t.Fatal(err)
	}
	<-gd.entered
	want = append(want, msgReadBlocksAt)

	shut, done := context.WithTimeout(context.Background(), 5*time.Second)
	defer done()
	if err := srv.Shutdown(shut); err != nil {
		t.Fatal(err)
	}
	// One reply per request (the cancelled one included), plus goaway.
	checkOneWritePerFrame(t, cli, ln.only(t), want, len(want)-1+1)
}

// TestOneWritePerFrameAgent is the agent protocol's turn: every
// message type, with a 1 MiB write chunk (the facade's WriteAt unit)
// and its 1 MiB read back.
func TestOneWritePerFrameAgent(t *testing.T) {
	ctx := context.Background()
	vol, err := stegfs.Format(blockdev.NewMem(4096, 2048),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("hop")})
	if err != nil {
		t.Fatal(err)
	}
	agent := steghide.NewVolatile(vol, prng.NewFromUint64(21))
	ln := &tapListener{Listener: listen(t)}
	srv, err := NewAgentServer(ln, map[string]*steghide.VolatileAgent{"": agent}, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, tc := dialTapped(t, srv.Addr())
	cli := &Client{link: m}

	chunk := prng.NewFromUint64(22).Bytes(1 << 20)
	got := make([]byte, len(chunk))
	steps := []struct {
		typ uint32
		do  func() error
	}{
		{msgPing, func() error { return cli.Ping(ctx) }},
		{msgLogin, func() error { return cli.Login(ctx, "", "alice", "pw") }},
		{msgCreateDummy, func() error { return cli.CreateDummy(ctx, "/cover", 1024) }},
		{msgCreate, func() error { return cli.Create(ctx, "/f") }},
		{msgWriteV, func() error { return cli.WriteV(ctx, "/f", Then{}, Segment{Off: 0, Data: chunk}) }},
		{msgRead, func() error { _, err := cli.Read(ctx, "/f", got, 0); return err }},
		{msgWriteV, func() error { return cli.WriteV(ctx, "/f", Then{Save: true}) }},
		{msgDisclose, func() error { _, _, err := cli.Disclose(ctx, "/f"); return err }},
		{msgWriteV, func() error { return cli.WriteV(ctx, "/f", Then{Truncate: true, Size: 100}) }},
		{msgList, func() error { _, err := cli.Files(ctx); return err }},
		{msgDelete, func() error { return cli.Delete(ctx, "/f") }},
		{msgDisclose, func() error { // an error reply
			if _, _, err := cli.Disclose(ctx, "/f"); !errors.Is(err, stegfs.ErrNotFound) {
				return fmt.Errorf("disclose of a deleted file: %v", err)
			}
			return nil
		}},
		{msgLogout, func() error { return cli.Logout(ctx) }},
	}
	want := []uint32{msgHello}
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("message %#x: %v", s.typ, err)
		}
		want = append(want, s.typ)
	}
	if !bytes.Equal(got, chunk) {
		t.Fatal("1 MiB chunk did not read back")
	}
	shut, done := context.WithTimeout(context.Background(), 5*time.Second)
	defer done()
	if err := srv.Shutdown(shut); err != nil {
		t.Fatal(err)
	}
	checkOneWritePerFrame(t, tc, ln.only(t), want, len(want)+1)
}

// serveWith serves the next connection to a fresh listener with
// handle, the way both servers' accept loops do.
func serveWith(t *testing.T, handle handlerFunc) (addr string, cs func() *connServer) {
	t.Helper()
	ln := listen(t)
	ready := make(chan *connServer, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		c := newConnServer(conn, maxBodySize, nil, nil)
		ready <- c
		c.serve(handle)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String(), func() *connServer { return <-ready }
}

// TestCancelReachesHandlerAtDepthOne is why the server is
// leader/follower and does not simply serve a request on the goroutine
// that read it with nobody left on the socket: the only request in
// flight is parked on a slow device when its msgCancel arrives, and its
// context must have fired by the time the handler comes back.
func TestCancelReachesHandlerAtDepthOne(t *testing.T) {
	slow := &slowDevice{Device: blockdev.NewMem(256, 8), delay: 150 * time.Millisecond}
	started := make(chan struct{})
	fired := make(chan bool, 1)
	addr, _ := serveWith(t, func(ctx context.Context, req frame, limit uint64) frame {
		close(started)
		buf := make([]byte, 256)
		err := blockdev.ReadBlock(slow, 0, buf)
		fired <- ctx.Err() != nil
		if err != nil {
			return errFrame(err)
		}
		return frame{Type: msgOK}
	})
	m, err := dialMux(context.Background(), addr, maxBodySize)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := m.call(ctx, frame{Type: msgReadBlocks})
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: %v", err)
	}
	if !<-fired {
		t.Fatal("the handler returned with its context still live: nobody read the msgCancel while it ran")
	}
	// The abandoned reply is discarded by ID; the connection carries on.
	if _, err := m.call(context.Background(), frame{Type: msgPing}); err != nil {
		t.Fatalf("connection unhealthy after a cancelled call: %v", err)
	}
}

// TestBackpressureAndDuplicateID: with connWorkers handlers parked
// nobody is on the socket, so the next request is not dispatched until
// one of them returns; and a second request under an ID still in
// flight drops the connection instead of being answered.
func TestBackpressureAndDuplicateID(t *testing.T) {
	var entered atomic.Int32
	gate := make(chan struct{})
	addr, served := serveWith(t, func(ctx context.Context, req frame, limit uint64) frame {
		entered.Add(1)
		<-gate
		return frame{Type: msgOK}
	})
	m, err := dialMux(context.Background(), addr, maxBodySize)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	cs := served()

	errc := make(chan error, connWorkers+1)
	for i := 0; i < connWorkers+1; i++ {
		go func() {
			_, err := m.call(context.Background(), frame{Type: msgDevInfo})
			errc <- err
		}()
	}
	waitFor(t, "every handler slot to fill", func() bool { return entered.Load() == connWorkers })
	time.Sleep(20 * time.Millisecond) // a ninth dispatch would need no longer
	if got, inflight := entered.Load(), cs.inflightN.Load(); got != connWorkers || inflight != connWorkers {
		t.Fatalf("%d handlers entered, %d requests in flight with every slot parked; want %d", got, inflight, connWorkers)
	}
	gate <- struct{}{} // one returns...
	waitFor(t, "the waiting request to be dispatched", func() bool { return entered.Load() == connWorkers+1 })
	close(gate)
	for i := 0; i < connWorkers+1; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	// Duplicate in-flight ID, in raw frames on a second connection: the
	// drop comes at once, with the original still parked in its handler.
	parked := make(chan struct{}, 2)
	gate2 := make(chan struct{})
	defer close(gate2)
	addr2, _ := serveWith(t, func(ctx context.Context, req frame, limit uint64) frame {
		parked <- struct{}{}
		<-gate2
		return frame{Type: msgOK}
	})
	conn, err := net.Dial("tcp", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // test bound
	for _, f := range []frame{helloFrame(protoV2, maxBodySize), {Type: msgDevInfo, ID: 7}} {
		if err := writeFrame(conn, f); err != nil {
			t.Fatal(err)
		}
	}
	if f, err := readFrame(conn, maxBodySize); err != nil || f.Type != msgHello {
		t.Fatalf("hello reply: %#x, %v", f.Type, err)
	}
	<-parked
	if err := writeFrame(conn, frame{Type: msgDevInfo, ID: 7}); err != nil {
		t.Fatal(err)
	}
	if f, err := readFrame(conn, maxBodySize); err == nil {
		t.Fatalf("want the connection dropped, got frame %#x id %d", f.Type, f.ID)
	}
	if len(parked) != 0 {
		t.Fatal("the duplicate was handed to a handler")
	}
}

// waitFor polls cond, failing the test if it stays false.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestUnsentIsProvable: sent=false is the retry layer's proof that a
// mutating request may be sent again. A call that gives up while it
// waits for the socket's write side — cancelled, the connection
// failed, the connection closed — must report it and must have put
// nothing on the wire.
func TestUnsentIsProvable(t *testing.T) {
	for _, why := range []string{"cancelled", "failed", "closed"} {
		t.Run(why, func(t *testing.T) {
			addr, _ := serveWith(t, func(ctx context.Context, req frame, limit uint64) frame {
				return frame{Type: msgOK}
			})
			m, tc := dialTapped(t, addr)
			gate := make(chan struct{})
			tc.mu.Lock()
			tc.gate = gate
			tc.mu.Unlock()

			// The holder gets the write side and parks inside its Write.
			type result struct {
				sent bool
				err  error
			}
			holder := make(chan result, 1)
			go func() {
				_, sent, err := m.callT(context.Background(), frame{Type: msgDevInfo})
				holder <- result{sent, err}
			}()
			waitFor(t, "the holder's Write", func() bool { types, _ := tc.wrote(); return len(types) == 2 })

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			waiter := make(chan result, 1)
			go func() {
				e := &encoder{}
				_, sent, err := m.callT(ctx, e.str("/mutating").frame(msgCreate))
				waiter <- result{sent, err}
			}()
			waitFor(t, "the waiter to queue for the write side", func() bool {
				m.mu.Lock()
				defer m.mu.Unlock()
				return len(m.pending) == 2
			})
			var want error
			switch why {
			case "cancelled":
				cancel()
				want = context.Canceled
			case "failed":
				m.fail(errors.New("injected transport fault"))
				want = ErrConnBroken
			case "closed":
				m.close()
				want = errConnClosed
			}
			if r := <-waiter; r.sent || !errors.Is(r.err, want) {
				t.Fatalf("waiter: sent=%v err=%v, want sent=false and %v", r.sent, r.err, want)
			}
			close(gate)
			if r := <-holder; !r.sent {
				t.Fatalf("holder was inside its Write, yet sent=false (err %v)", r.err)
			}
			if types, _ := tc.wrote(); !slices.Equal(types, []uint32{msgHello, msgDevInfo}) {
				t.Fatalf("the connection saw writes %#x; the waiter must have left none", types)
			}
		})
	}
}

// patternDevice fails any block write that is not one repeated byte,
// or is the poison byte: a request body reaching the server after its
// buffer went back to the pool.
type patternDevice struct {
	*blockdev.Mem
	bad atomic.Int64
}

func (p *patternDevice) check(data [][]byte) {
	for _, b := range data {
		if b[0] == poisonByte || bytes.Count(b, b[:1]) != len(b) {
			p.bad.Add(1)
		}
	}
}

func (p *patternDevice) WriteBlocks(start uint64, data [][]byte) error {
	p.check(data)
	return p.Mem.WriteBlocks(start, data)
}

func (p *patternDevice) WriteBlocksAt(idx []uint64, data [][]byte) error {
	p.check(data)
	return p.Mem.WriteBlocksAt(idx, data)
}

const poisonByte = 0xDB

// TestRecycledRequestNeverReachesPeer is the regression test for the
// ownership rule (DESIGN.md "Memory plane"): a request body belongs to
// the calling goroutine from encode until its own Write returns, so
// recycling it on every return path — success, remote error,
// cancellation while queued for the socket, cancellation mid-flight —
// is safe. With every recycled buffer poisoned, many callers share one
// connection per protocol, half of the agent writes cancelled at some
// point of their call; no poisoned or torn block may reach the storage
// server's device, and no poisoned byte may come back out of a file.
// It needs no race detector to fail.
func TestRecycledRequestNeverReachesPeer(t *testing.T) {
	defer mempool.SetPoison(mempool.SetPoison(poisonByte))
	const (
		workers = 8
		rounds  = 60
		bs      = 512
	)

	pd := &patternDevice{Mem: blockdev.NewMem(bs, workers*16)}
	ssrv := NewStorageServer(listen(t), pd, nil)
	defer ssrv.Close()
	dev, err := DialStorage(ssrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	vol, err := stegfs.Format(blockdev.NewMem(bs, 4096),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("poison")})
	if err != nil {
		t.Fatal(err)
	}
	asrv, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{"": steghide.NewVolatile(vol, prng.NewFromUint64(31))}, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer asrv.Close()
	cli, err := DialAgent(context.Background(), asrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Login(context.Background(), "", "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := cli.CreateDummy(context.Background(), "/cover", 1024); err != nil {
		t.Fatal(err)
	}
	fileLen := 6 * vol.PayloadSize()
	for w := 0; w < workers; w++ {
		if err := cli.Create(context.Background(), fmt.Sprintf("/f%d", w)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) { // storage: batches of this worker's byte
			defer wg.Done()
			data := blockdev.AllocBlocks(8, bs)
			idx := make([]uint64, len(data))
			for r := 0; r < rounds; r++ {
				for i, b := range data {
					for j := range b {
						b[j] = byte(1 + w)
					}
					idx[i] = uint64(w*16 + (i*5+r)%16)
				}
				var err error
				switch r % 3 {
				case 0:
					err = dev.WriteBlocks(uint64(w*16), data)
				case 1:
					err = dev.WriteBlocksAt(idx, data)
				default:
					err = blockdev.WriteBlock(dev, idx[0], data[0])
				}
				if err != nil {
					t.Errorf("storage worker %d: %v", w, err)
					return
				}
			}
		}(w)
		go func(w int) { // agent: whole-file writes, every other one cut short
			defer wg.Done()
			rng := prng.NewFromUint64(uint64(500 + w))
			path := fmt.Sprintf("/f%d", w)
			data := bytes.Repeat([]byte{byte(0x40 + w)}, fileLen)
			for r := 0; r < rounds; r++ {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if r%2 == 1 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(20+rng.Uint64n(2000))*time.Microsecond)
				}
				err := cli.WriteV(ctx, path, Then{}, Segment{Off: 0, Data: data})
				cancel()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Errorf("agent worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if n := pd.bad.Load(); n != 0 {
		t.Errorf("%d poisoned or torn blocks reached the storage server's device", n)
	}
	for w := 0; w < workers; w++ {
		got := make([]byte, fileLen)
		n, err := cli.Read(context.Background(), fmt.Sprintf("/f%d", w), got, 0)
		if err != nil {
			t.Fatal(err)
		}
		// A cut-short write may have landed in part; what landed is the
		// worker's byte, never anything else.
		if bytes.Count(got[:n], []byte{byte(0x40 + w)}) != n {
			t.Errorf("file %d holds bytes no write sent (poison %d times)", w, bytes.Count(got[:n], []byte{poisonByte}))
		}
	}
}
