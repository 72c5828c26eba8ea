package wire

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
	"steghide/internal/steghide"
)

// testAgent builds a fresh volatile agent over a small formatted
// volume (fast KDF — these are protocol tests, not KDF tests).
func testAgent(t *testing.T, seed uint64) *steghide.VolatileAgent {
	t.Helper()
	vol, err := stegfs.Format(blockdev.NewMem(256, 2048),
		stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("redial")})
	if err != nil {
		t.Fatal(err)
	}
	return steghide.NewVolatile(vol, prng.NewFromUint64(seed))
}

// quickRetry is a retry policy tuned for tests: generous budget, tiny
// backoff, deterministic jitter.
func quickRetry() RetryPolicy {
	return RetryPolicy{MaxRetries: 8, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond, JitterSeed: 11}
}

// TestPing probes liveness: answered before any login.
func TestPing(t *testing.T) {
	ctx := context.Background()
	agent := testAgent(t, 1)
	srv, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{"": agent}, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := DialAgent(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Ping(ctx); err != nil {
		t.Fatalf("ping before login: %v", err)
	}
	if err := cli.Login(ctx, "", "alice", "pw"); err != nil {
		t.Fatalf("login after ping: %v", err)
	}
}

// TestCloseIdempotentConcurrent pins the Close contract: double
// Close, Close from many goroutines, and Close racing in-flight calls
// must neither panic nor double-close (run under -race).
func TestCloseIdempotentConcurrent(t *testing.T) {
	ctx := context.Background()
	agent := testAgent(t, 3)
	srv, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{"": agent}, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, mode := range []string{"direct", "retry"} {
		t.Run(mode, func(t *testing.T) {
			var cli *Client
			var err error
			switch mode {
			case "direct":
				cli, err = DialAgent(ctx, srv.Addr())
			case "retry":
				cli, err = DialAgentRetry(context.Background(), quickRetry(), srv.Addr())
			}
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					cli.Ping(ctx) //nolint:errcheck // racing Close; any outcome is fine
				}()
			}
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := cli.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
				}()
			}
			wg.Wait()
			if err := cli.Close(); err != nil {
				t.Errorf("re-Close: %v", err)
			}
		})
	}

	// RemoteDevice has the same contract.
	mem := blockdev.NewMem(256, 64)
	ssrv := NewStorageServer(listen(t), mem, nil)
	defer ssrv.Close()
	dev, err := DialStorage(ssrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev.Close() //nolint:errcheck // concurrent Close is the point
		}()
	}
	wg.Wait()
	if err := dev.Close(); err != nil {
		t.Errorf("device re-Close: %v", err)
	}
}

// fakeV2Server accepts one connection, completes the v2 handshake,
// answers logins with msgOK, and on the first mutating frame reads it
// FULLY and then drops the connection without replying — the
// maybe-applied scenario: the request reached the server, the client
// cannot know whether it executed.
func fakeV2Server(t *testing.T, ln net.Listener) {
	t.Helper()
	conn, err := ln.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	first, err := readFrame(conn, maxBodySize)
	if err != nil || first.Type != msgHello {
		return
	}
	hello := helloFrame(protoV2, maxBodySize)
	hello.ID = first.ID
	if err := writeFrame(conn, hello); err != nil {
		return
	}
	for {
		req, err := readFrame(conn, maxBodySize)
		if err != nil {
			return
		}
		switch req.Type {
		case msgLogin, msgDisclose, msgPing:
			if err := writeFrame(conn, frame{Type: msgOK, ID: req.ID, Body: []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}); err != nil {
				return
			}
		default:
			return // whole frame consumed; vanish without an answer
		}
	}
}

// TestMaybeApplied pins the non-retry contract for mutating calls: a
// write whose frame was fully sent before the transport died fails
// with ErrMaybeApplied — never a silent transparent retry.
func TestMaybeApplied(t *testing.T) {
	ctx := context.Background()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go fakeV2Server(t, ln)

	cli, err := DialAgentRetry(context.Background(), quickRetry(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Login(ctx, "", "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	err = cli.Create(ctx, "/f")
	if !errors.Is(err, ErrMaybeApplied) {
		t.Fatalf("want ErrMaybeApplied, got %v", err)
	}
	if !errors.Is(err, ErrConnBroken) {
		t.Fatalf("ErrMaybeApplied should wrap the transport fault, got %v", err)
	}
}

// TestReadRetriesTransparently is the idempotent counterpart: the
// same mid-call connection loss on a read-class call redials and
// retries without surfacing anything.
func TestReadRetriesTransparently(t *testing.T) {
	ctx := context.Background()
	agent := testAgent(t, 4)
	srv, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{"": agent}, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := DialAgentRetry(context.Background(), quickRetry(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Login(ctx, "", "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := cli.CreateDummy(ctx, "/cover", 32); err != nil {
		t.Fatal(err)
	}
	if err := cli.Create(ctx, "/f"); err != nil {
		t.Fatal(err)
	}
	msg := prng.NewFromUint64(7).Bytes(300)
	if err := cli.WriteV(ctx, "/f", false, Segment{Off: 0, Data: msg}); err != nil {
		t.Fatal(err)
	}
	if err := cli.WriteV(ctx, "/f", true); err != nil {
		t.Fatal(err)
	}

	// Kill the live connection out from under the client.
	cli.link.(*Redialer).mu.Lock()
	live := cli.link.(*Redialer).conn
	cli.link.(*Redialer).mu.Unlock()
	live.conn.Close()

	buf := make([]byte, len(msg))
	n, err := cli.Read(ctx, "/f", buf, 0)
	if err != nil {
		t.Fatalf("read across reconnect: %v", err)
	}
	if n != len(msg) || string(buf) != string(msg) {
		t.Fatalf("read %d bytes across reconnect, content match=%v", n, string(buf) == string(msg))
	}
	// The session was replayed: listing still works and names /f.
	files, err := cli.Files(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0] != "/f" {
		t.Fatalf("replayed session files = %v", files)
	}
}

// TestDrainHandsOffToNextAddress runs the drain choreography end to
// end: a server Shutdown lets the in-flight call finish, the goaway
// sends the client's next call to the next address, and the session
// replays there.
func TestDrainHandsOffToNextAddress(t *testing.T) {
	agent := testAgent(t, 5)
	srv1, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{"": agent}, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{"": agent}, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	cli, err := DialAgentRetry(context.Background(), quickRetry(), srv1.Addr(), srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Login(context.Background(), "", "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := cli.CreateDummy(context.Background(), "/cover", 32); err != nil {
		t.Fatal(err)
	}
	if err := cli.Create(context.Background(), "/f"); err != nil {
		t.Fatal(err)
	}
	msg := prng.NewFromUint64(8).Bytes(200)
	if err := cli.WriteV(context.Background(), "/f", false, Segment{Off: 0, Data: msg}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The next calls land on srv2 with the session replayed; the write
	// above was flushed by the drain-triggered logout.
	buf := make([]byte, len(msg))
	if n, err := cli.Read(context.Background(), "/f", buf, 0); err != nil || n != len(msg) {
		t.Fatalf("read after drain: %d, %v", n, err)
	}
	if string(buf) != string(msg) {
		t.Fatal("content lost across drain handoff")
	}
	if err := cli.WriteV(context.Background(), "/f", false, Segment{Off: uint64(len(msg)), Data: msg}); err != nil {
		t.Fatalf("write after drain: %v", err)
	}
}

// TestDrainLetsInflightFinish pins the drain contract on both servers
// for a plain (non-retry) client: a call in flight when Shutdown begins
// still gets its reply, Draining reports the drain from its start, a
// new connection is refused, and afterwards the client's next call
// fails with the broken-connection taxonomy, not a hang.
func TestDrainLetsInflightFinish(t *testing.T) {
	type drainer interface {
		Addr() string
		Draining() bool
		Shutdown(context.Context) error
	}
	const delay = 50 * time.Millisecond // per device op: the call stays in flight
	cases := []struct {
		name string
		// start serves a slow device and dials one direct client; call is
		// one request on that client.
		start func(t *testing.T) (srv drainer, call func() error)
		dial  func(addr string) error
	}{
		{"storage", func(t *testing.T) (drainer, func() error) {
			srv := NewStorageServer(listen(t), &slowDevice{Device: blockdev.NewMem(256, 64), delay: delay}, nil)
			dev, err := DialStorage(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { dev.Close() })
			return srv, func() error { return dev.ReadBlock(1, make([]byte, 256)) }
		}, func(addr string) error {
			dev, err := DialStorage(addr)
			if err == nil {
				dev.Close()
			}
			return err
		}},
		{"agent", func(t *testing.T) (drainer, func() error) {
			mem := blockdev.NewMem(256, 2048)
			if _, err := stegfs.Format(mem, stegfs.FormatOptions{KDFIterations: 4, FillSeed: []byte("drain")}); err != nil {
				t.Fatal(err)
			}
			vol, err := stegfs.Open(&slowDevice{Device: mem, delay: delay})
			if err != nil {
				t.Fatal(err)
			}
			agent := steghide.NewVolatile(vol, prng.NewFromUint64(10))
			srv, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{"": agent}, ServeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cli, err := DialAgent(context.Background(), srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cli.Close() })
			if err := cli.Login(context.Background(), "", "alice", "pw"); err != nil {
				t.Fatal(err)
			}
			return srv, func() error { return cli.CreateDummy(context.Background(), "/cover", 4) }
		}, func(addr string) error {
			cli, err := DialAgent(context.Background(), addr)
			if err == nil {
				cli.Close()
			}
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, call := tc.start(t)
			errc := make(chan error, 1)
			go func() { errc <- call() }()
			time.Sleep(10 * time.Millisecond) // let the call reach its handler
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			shut := make(chan error, 1)
			go func() { shut <- srv.Shutdown(ctx) }()
			for !srv.Draining() {
				if ctx.Err() != nil {
					t.Fatal("Draining never reported the drain")
				}
				time.Sleep(time.Millisecond)
			}
			if err := tc.dial(srv.Addr()); err == nil {
				t.Fatal("a new connection was served during the drain")
			}
			if err := <-shut; err != nil {
				t.Fatalf("drain: %v", err)
			}
			if err := <-errc; err != nil {
				t.Fatalf("in-flight call during drain: %v", err)
			}
			if err := call(); !errors.Is(err, ErrConnBroken) {
				t.Fatalf("post-drain call: want ErrConnBroken, got %v", err)
			}
		})
	}
}

// TestRetrySurvivesServerRestart kills a daemon abruptly and restarts
// it on the same address; the retrying client's next call redials
// until the new incarnation is up. This is the examples/remote-vault
// scenario.
func TestRetrySurvivesServerRestart(t *testing.T) {
	agent := testAgent(t, 6)
	srv, err := NewAgentServer(listen(t), map[string]*steghide.VolatileAgent{"": agent}, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	policy := RetryPolicy{MaxRetries: 20, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond, JitterSeed: 3}
	cli, err := DialAgentRetry(context.Background(), policy, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Login(context.Background(), "", "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := cli.CreateDummy(context.Background(), "/cover", 32); err != nil {
		t.Fatal(err)
	}
	if err := cli.Create(context.Background(), "/f"); err != nil {
		t.Fatal(err)
	}
	msg := prng.NewFromUint64(9).Bytes(128)
	if err := cli.WriteV(context.Background(), "/f", false, Segment{Off: 0, Data: msg}); err != nil {
		t.Fatal(err)
	}

	// Kill abruptly: an already-expired drain context closes every
	// connection without waiting (Close would block until the retry
	// client hangs up, which it never does).
	killCtx, killCancel := context.WithCancel(context.Background())
	killCancel()
	srv.Shutdown(killCtx) //nolint:errcheck // the expired ctx is the point

	restarted := make(chan struct{})
	go func() {
		// Rebind the same address a beat later, while the client is
		// already failing and backing off against it.
		time.Sleep(30 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		var srv2 *AgentServer
		if err == nil {
			srv2, err = NewAgentServer(ln, map[string]*steghide.VolatileAgent{"": agent}, ServeOptions{})
		}
		if err != nil {
			t.Errorf("rebind %s: %v", addr, err)
			close(restarted)
			return
		}
		t.Cleanup(func() { srv2.Close() })
		close(restarted)
	}()

	buf := make([]byte, len(msg))
	n, err := cli.Read(context.Background(), "/f", buf, 0)
	<-restarted
	if err != nil {
		t.Fatalf("read across restart: %v", err)
	}
	if n != len(msg) || string(buf) != string(msg) {
		t.Fatal("content lost across restart")
	}
}

// TestCancelDuringReconnect pins two things about a context cancelled
// mid-backoff: the call abandons promptly, and nothing keeps redialing
// in the background afterwards (goroutine-count assertion).
func TestCancelDuringReconnect(t *testing.T) {
	// An address that refuses instantly: a bound-then-closed port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	before := runtime.NumGoroutine()

	policy := RetryPolicy{MaxRetries: 1 << 20, BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Second, JitterSeed: 5}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond) // land mid-backoff
		cancel()
	}()
	start := time.Now()
	_, err = DialAgentRetry(ctx, policy, deadAddr)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}

	// No redial machinery may survive the abandoned call.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 64<<10)
	t.Fatalf("leaked goroutines: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestRetryBudgetExhausts pins that a permanently dead address fails
// with the transport taxonomy after the budget, instead of retrying
// forever.
func TestRetryBudgetExhausts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	policy := RetryPolicy{MaxRetries: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond, JitterSeed: 7}
	_, err = DialAgentRetry(context.Background(), policy, deadAddr)
	if err == nil {
		t.Fatal("dial to dead address succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) && !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("want a dial error, got %v", err)
	}
}
