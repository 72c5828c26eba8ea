package steghide

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingSource counts requested updates and can be switched to
// failing. Its activity counter never moves, so the daemon never skips
// a tick.
type countingSource struct {
	mu    sync.Mutex
	calls int
	err   error
}

func (c *countingSource) DummyUpdateBurst(n int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls += n
	if c.err != nil {
		return 0, c.err
	}
	return n, nil
}

func (c *countingSource) DataSeq() uint64 { return 0 }

func (c *countingSource) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func TestDaemonEmitsAndStops(t *testing.T) {
	src := &countingSource{}
	d := NewDaemon(src, time.Millisecond, 1)
	d.Start()
	d.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for d.Issued() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d.Issued() < 5 {
		t.Fatalf("daemon issued only %d updates", d.Issued())
	}
	d.Stop()
	d.Stop() // idempotent
	after := src.count()
	time.Sleep(20 * time.Millisecond)
	if src.count() != after {
		t.Fatal("daemon kept running after Stop")
	}
}

// TestDaemonIssuesWholeBursts: every idle tick is one burst of the
// daemon's size, and a size below one means a burst of one.
func TestDaemonIssuesWholeBursts(t *testing.T) {
	if d := NewDaemon(&countingSource{}, time.Millisecond, 0); d.burst != 1 {
		t.Fatalf("burst 0 clamped to %d, want 1", d.burst)
	}
	src := &countingSource{}
	d := NewDaemon(src, time.Millisecond, 4)
	d.Start()
	deadline := time.Now().Add(2 * time.Second)
	for d.Issued() < 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	if got := d.Issued(); got < 8 || got%4 != 0 || got != uint64(src.count()) {
		t.Fatalf("daemon issued %d updates over %d requested, want whole bursts of 4", got, src.count())
	}
}

func TestDaemonTolleratesNoDummySpace(t *testing.T) {
	src := &countingSource{err: ErrNoDummySpace}
	d := NewDaemon(src, time.Millisecond, 1)
	d.Start()
	deadline := time.Now().Add(2 * time.Second)
	for src.count() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	if n, _ := d.Errors(); n != 0 {
		t.Fatalf("boot-state ErrNoDummySpace counted as %d errors", n)
	}
	if d.Issued() != 0 {
		t.Fatal("failed updates counted as issued")
	}
}

func TestDaemonRecordsRealErrors(t *testing.T) {
	boom := errors.New("disk on fire")
	src := &countingSource{err: boom}
	d := NewDaemon(src, time.Millisecond, 1)
	d.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n, _ := d.Errors(); n >= 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	n, last := d.Errors()
	if n == 0 || !errors.Is(last, boom) {
		t.Fatalf("errors not recorded: n=%d last=%v", n, last)
	}
}

func TestDaemonRestart(t *testing.T) {
	src := &countingSource{}
	d := NewDaemon(src, time.Millisecond, 1)
	for round := 0; round < 3; round++ {
		before := d.Issued()
		d.Start()
		deadline := time.Now().Add(2 * time.Second)
		for d.Issued() < before+3 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		d.Stop()
		if d.Issued() < before+3 {
			t.Fatalf("round %d: daemon issued %d (had %d) after restart", round, d.Issued(), before)
		}
		after := src.count()
		time.Sleep(10 * time.Millisecond)
		if src.count() != after {
			t.Fatalf("round %d: daemon kept running after Stop", round)
		}
	}
}

// seqSource is a DummySource whose activity counter tests can drive.
type seqSource struct {
	countingSource
	seq atomic.Uint64
}

func (s *seqSource) DataSeq() uint64 { return s.seq.Load() }

func TestDaemonAdaptiveFillsOnlyIdleGaps(t *testing.T) {
	src := &seqSource{}
	d := NewDaemon(src, time.Millisecond, 1)
	d.Start()

	// Busy phase: real updates flow between ticks, so the daemon must
	// suppress its own traffic.
	stopBusy := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopBusy:
				return
			default:
				src.seq.Add(1)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for d.Skipped() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	busyIssued := d.Issued()
	close(stopBusy)
	if d.Skipped() < 5 {
		t.Fatalf("adaptive daemon skipped only %d busy ticks", d.Skipped())
	}

	// Idle phase: the stream would fall silent, so the daemon must
	// resume filling it.
	deadline = time.Now().Add(2 * time.Second)
	for d.Issued() < busyIssued+5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	if d.Issued() < busyIssued+5 {
		t.Fatalf("adaptive daemon did not fill the idle gap (issued %d, was %d)", d.Issued(), busyIssued)
	}
}

func TestDaemonAgainstRealAgent(t *testing.T) {
	a, _ := newC2(t, 1024)
	s, err := a.Login("u", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateDummy("/d", 64); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(a, time.Millisecond, 1)
	d.Start()
	deadline := time.Now().Add(2 * time.Second)
	for d.Issued() < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	if d.Issued() < 10 {
		t.Fatalf("daemon issued only %d updates against the real agent", d.Issued())
	}
	if got := a.Stats().DummyUpdates; got < 10 {
		t.Fatalf("agent recorded %d dummy updates", got)
	}
}
