package steghide_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"steghide"
	"steghide/internal/prng"
	"steghide/internal/wire"
)

// retryTaxonomy reports whether err is inside the self-healing
// layer's documented failure taxonomy: a typed maybe-applied, a
// broken-connection sentinel, a peer-reported error, or a raw
// transport failure. Anything else (hangs are caught by the test
// timeout) is a contract violation.
func retryTaxonomy(err error) bool {
	if errors.Is(err, steghide.ErrMaybeApplied) ||
		errors.Is(err, steghide.ErrConnBroken) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var pe *steghide.PathError
	// Remote-reported errors arrive as PathError over the wire
	// sentinel chain; those are ordinary API failures, always allowed.
	return errors.As(err, &pe)
}

// retryStack mounts one Construction-2 stack and serves it on n
// listeners (the same volume behind several addresses).
func retryStack(t *testing.T, fill string, lns ...net.Listener) (*steghide.Stack, []*steghide.AgentServer) {
	t.Helper()
	stack, err := steghide.Mount(steghide.NewMemDevice(512, 4096),
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte(fill)}),
		steghide.WithConstruction2(),
		steghide.WithSeed([]byte(fill+"-agent")))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stack.Close() })
	srvs := make([]*steghide.AgentServer, len(lns))
	for i, ln := range lns {
		srvs[i], err = steghide.ServeListener(ln, stack)
		if err != nil {
			t.Fatal(err)
		}
	}
	return stack, srvs
}

// TestDialFSRetrySurvivesDrain is the fleet-handoff story end to end
// at the facade: a session dialed with WithRetry and a fallback
// address keeps working — same content, same disclosures — when its
// server drains via Shutdown.
func TestDialFSRetrySurvivesDrain(t *testing.T) {
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, srvs := retryStack(t, "drain-facade", ln1, ln2)
	t.Cleanup(func() { srvs[1].Close() })

	ctx := context.Background()
	fs, err := steghide.DialFS(ctx, srvs[0].Addr(), "alice", "alice-pass",
		steghide.WithRetry(steghide.RetryPolicy{MaxRetries: 8, BaseBackoff: 2 * time.Millisecond, JitterSeed: 3}),
		steghide.WithRedial(srvs[1].Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.CreateDummy(ctx, "/cover", 256); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create(ctx, "/doc"); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("drain"), 100)
	if err := steghide.WriteFile(ctx, fs, "/doc", want); err != nil {
		t.Fatal(err)
	}

	// Drain the server the session is on. The client must redial the
	// fallback, replay login and disclosures, and carry on.
	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := srvs[0].Shutdown(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	got, err := steghide.ReadFile(ctx, fs, "/doc")
	if err != nil {
		t.Fatalf("read after drain: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content diverged across the drain handoff")
	}
	if err := steghide.WriteFile(ctx, fs, "/doc", bytes.Repeat([]byte("after"), 80)); err != nil {
		t.Fatalf("write after drain: %v", err)
	}
}

// TestDialFSChaos drives the facade FS through the wire chaos
// harness: every operation either succeeds or fails inside the retry
// taxonomy, the session never latches, and content read back after
// the chaos matches the last successfully-written value.
func TestDialFSChaos(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := wire.NewFaultListener(ln, 42) // stock schedule: every 4th conn is clean
	stack, srvs := retryStack(t, "chaos-facade", fln)
	killed, kill := context.WithCancel(context.Background())
	kill()
	t.Cleanup(func() { srvs[0].Shutdown(killed) }) //nolint:errcheck // abrupt teardown

	ctx := context.Background()
	var fs steghide.FS
	for attempt := 0; ; attempt++ {
		fs, err = steghide.DialFS(ctx, srvs[0].Addr(), "alice", "alice-pass",
			steghide.WithRetry(steghide.RetryPolicy{MaxRetries: 8, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, JitterSeed: 42}))
		if err == nil {
			break
		}
		if attempt > 20 {
			t.Fatalf("dial never survived the fault schedule: %v", err)
		}
	}
	defer fs.Close()

	// converge runs op until clean success, requiring every failure to
	// stay inside the taxonomy. Convergence is the no-latch assertion:
	// a latched client would fail forever and trip the bound.
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

	converge("createdummy", func() error { return fs.CreateDummy(ctx, "/cover", 256) })
	converge("create", func() error {
		err := fs.Create(ctx, "/doc")
		if err != nil {
			if _, serr := fs.Stat(ctx, "/doc"); serr == nil {
				return nil // the ambiguous create had applied
			}
		}
		return err
	})
	const blocks = 24
	ps := stack.Volume().PayloadSize()
	var last []byte
	check := func(round int, what string) {
		t.Helper()
		var got []byte
		converge("read", func() error {
			var rerr error
			got, rerr = steghide.ReadFile(ctx, fs, "/doc")
			return rerr
		})
		if !bytes.Equal(got, last) {
			t.Fatalf("round %d: read diverged from the last successful %s", round, what)
		}
	}
	for i := 0; i < 10; i++ {
		data := bytes.Repeat([]byte{byte('a' + i)}, blocks*ps)
		// Whole-content rewrites are the documented reconcile for
		// ErrMaybeApplied: re-issuing the same bytes is always safe.
		converge("write", func() error { return steghide.WriteFile(ctx, fs, "/doc", data) })
		last = data
		check(i, "rewrite")

		// An update burst: sixteen scattered single-block writes wait in
		// the client and travel with the Close. Repeating the whole burst
		// after a failed Close re-sends the same absolute-offset writes
		// behind the ones still staged, which converges.
		want := bytes.Clone(last)
		converge("burst", func() error {
			h, err := fs.OpenWrite(ctx, "/doc")
			if err != nil {
				return err
			}
			for k := 0; k < 16; k++ {
				li := (k*7 + i) % blocks
				chunk := bytes.Repeat([]byte{byte('A' + (i+k)%26)}, ps)
				copy(want[li*ps:], chunk)
				if _, err := h.WriteAt(chunk, int64(li*ps)); err != nil {
					h.Close() //nolint:errcheck // the write error wins
					return err
				}
			}
			return h.Close()
		})
		last = want
		check(i, "update burst")
	}
}

// TestRemoteRunConvergesAfterMaybeApplied cuts the connection of a
// self-healing remote FS inside the msgWriteV a write handle's Close
// sends: the frame has left the client, so the Close fails with a
// *PathError wrapping ErrMaybeApplied. The run stays staged in the
// client — nothing of it reached the stack — and the repeated Save
// sends it again on a fresh connection and converges.
func TestRemoteRunConvergesAfterMaybeApplied(t *testing.T) {
	ctx := context.Background()
	const blocks = 32
	// stage dials, writes a file and stages sixteen scattered blocks
	// through a handle: everything up to the Close, which sends them.
	stage := func(t *testing.T, stack *steghide.Stack, addr string) (steghide.FS, steghide.WriteHandle, []byte) {
		t.Helper()
		fs, err := steghide.DialFS(ctx, addr, "alice", "alice-pass",
			steghide.WithRetry(steghide.RetryPolicy{MaxRetries: 8, BaseBackoff: time.Millisecond, JitterSeed: 17}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		if err := fs.CreateDummy(ctx, "/cover", 256); err != nil {
			t.Fatal(err)
		}
		ps := stack.Volume().PayloadSize()
		want := bytes.Repeat([]byte("base."), blocks*ps/5+1)[:blocks*ps]
		if err := steghide.WriteFile(ctx, fs, "/f", want); err != nil {
			t.Fatal(err)
		}
		h, err := fs.OpenWrite(ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			li := i * 7 % blocks
			chunk := bytes.Repeat([]byte{byte('A' + i)}, ps)
			copy(want[li*ps:], chunk)
			if _, err := h.WriteAt(chunk, int64(li*ps)); err != nil {
				t.Fatal(err)
			}
		}
		return fs, h, want
	}

	// On a clean connection, count the bytes the server side moves
	// before the Close: the sequence is deterministic, so the faulty run
	// moves the same.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingListener{Listener: ln}
	clean, cleanSrvs := retryStack(t, "maybe-applied", counter)
	t.Cleanup(func() { cleanSrvs[0].Close() })
	stage(t, clean, counter.Addr().String())
	upToClose := counter.moved.Load()

	// The faulty run: the first connection's budget ends 64 bytes into
	// the msgWriteV (48, if the last reply was still being counted when
	// its call returned), so the server never decodes it; later
	// connections are clean.
	if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	fln := wire.NewFaultListener(ln, 1)
	fln.Plan = func(ordinal int, _ *prng.PRNG) wire.FaultPlan {
		if ordinal == 0 {
			return wire.FaultPlan{CutAfter: upToClose + 64}
		}
		return wire.FaultPlan{}
	}
	stack, srvs := retryStack(t, "maybe-applied", fln)
	killed, kill := context.WithCancel(ctx)
	kill()
	t.Cleanup(func() { srvs[0].Shutdown(killed) }) //nolint:errcheck // abrupt teardown
	fs, h, want := stage(t, stack, srvs[0].Addr())
	before := stack.Agent2().Stats().DataUpdates
	err = h.Close()
	var pe *steghide.PathError
	if !errors.Is(err, steghide.ErrMaybeApplied) || !errors.As(err, &pe) {
		t.Fatalf("Close over the cut: want a *PathError wrapping ErrMaybeApplied, got %v", err)
	}
	if n := stack.Agent2().Stats().DataUpdates - before; n != 0 {
		t.Fatalf("the torn msgWriteV issued %d data updates", n)
	}
	if err := fs.Save(ctx, "/f"); err != nil {
		t.Fatalf("repeated Save: %v", err)
	}
	if n := stack.Agent2().Stats().DataUpdates - before; n != 16 {
		t.Fatalf("the repeated Save issued %d data updates, want the 16 staged blocks", n)
	}
	if got, err := steghide.ReadFile(ctx, fs, "/f"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back after the repeated Save differs (err=%v)", err)
	}
}

// countingListener counts the bytes its connections move, both ways.
type countingListener struct {
	net.Listener
	moved atomic.Uint64
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, l: l}, nil
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.moved.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.moved.Add(uint64(n))
	return n, err
}
