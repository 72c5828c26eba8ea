package wire

import (
	"fmt"
	"net"
	"sync"
	"time"

	"steghide/internal/prng"
)

// This file is the network sibling of blockdev.FaultDevice: the chaos
// harness for the remote plane. A FaultConn injects transport faults
// — connection reset after a byte budget, torn frames (a partial
// prefix delivered, then the cut), one-shot stalls, per-read latency
// — and a FaultListener assigns deterministic per-connection fault
// plans from a seed, so a whole chaos run replays bit-identically.

// ErrInjectedFault reports an I/O operation killed by a FaultConn's
// plan. It reaches peers as a connection reset; locally (fuzzers,
// direct FaultConn users) it is the sentinel to assert on.
var ErrInjectedFault = fmt.Errorf("wire: injected fault")

// FaultPlan is one connection's injected-fault schedule. The zero
// value injects nothing.
type FaultPlan struct {
	// CutAfter is the connection's byte budget, counted across reads
	// and writes together. The operation that exhausts it transfers
	// the bytes still under budget — a torn frame, from the peer's
	// point of view — then the underlying connection closes and the
	// operation (and every later one) fails. 0 means no cut.
	CutAfter uint64
	// ReadLatency delays every read — a slow, but healthy, link.
	ReadLatency time.Duration
	// StallAfter arms a one-shot stall: once the cumulative byte count
	// passes it, the next operation sleeps StallFor before touching
	// the socket. Models a transient freeze (GC pause, packet loss
	// burst) rather than a failure; nothing errors.
	StallAfter uint64
	StallFor   time.Duration
}

// FaultConn wraps a net.Conn with an injected-fault plan. It is safe
// for the discipline every mux connection keeps — one reader, one
// writer at a time; the byte budget is shared across both directions.
type FaultConn struct {
	net.Conn
	plan FaultPlan

	mu      sync.Mutex
	moved   uint64 // cumulative bytes across reads and writes
	cut     bool
	stalled bool // the one-shot stall has fired
}

// NewFaultConn arms conn with plan.
func NewFaultConn(conn net.Conn, plan FaultPlan) *FaultConn {
	return &FaultConn{Conn: conn, plan: plan}
}

// admit reserves up to want bytes against the budget, reporting how
// many may move (0 with cut=true once the budget is gone) and whether
// the one-shot stall should fire now.
func (c *FaultConn) admit(want int) (allow int, cutNow, stallNow bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.plan.StallFor > 0 && !c.stalled && c.moved >= c.plan.StallAfter {
		c.stalled = true
		stallNow = true
	}
	if c.cut {
		return 0, true, stallNow
	}
	if c.plan.CutAfter == 0 {
		return want, false, stallNow
	}
	// A read and a write admitted concurrently may each take what was
	// left, so moved can pass the budget: that is a budget gone too.
	if c.moved >= c.plan.CutAfter {
		c.cut = true
		return 0, true, stallNow
	}
	return int(min(uint64(want), c.plan.CutAfter-c.moved)), false, stallNow
}

// consume charges n moved bytes against the budget.
func (c *FaultConn) consume(n int) {
	c.mu.Lock()
	c.moved += uint64(n)
	c.mu.Unlock()
}

// Read implements net.Conn. A read that would cross the byte budget
// is truncated to the budget (the torn frame); the next operation
// finds the budget exhausted, closes the connection, and fails.
func (c *FaultConn) Read(p []byte) (int, error) {
	if c.plan.ReadLatency > 0 {
		time.Sleep(c.plan.ReadLatency)
	}
	allow, cutNow, stallNow := c.admit(len(p))
	if stallNow {
		time.Sleep(c.plan.StallFor)
	}
	if cutNow {
		c.Conn.Close() //nolint:errcheck // the fault is the point
		return 0, fmt.Errorf("%w: read after %d-byte budget", ErrInjectedFault, c.plan.CutAfter)
	}
	n, err := c.Conn.Read(p[:allow])
	c.consume(n)
	return n, err
}

// Write implements net.Conn. A write that would cross the byte budget
// delivers the prefix still under budget — the peer sees a torn frame
// — then closes the connection and reports the fault (a short write
// must error by the io.Writer contract).
func (c *FaultConn) Write(p []byte) (int, error) {
	allow, cutNow, stallNow := c.admit(len(p))
	if stallNow {
		time.Sleep(c.plan.StallFor)
	}
	if cutNow {
		c.Conn.Close() //nolint:errcheck // the fault is the point
		return 0, fmt.Errorf("%w: write after %d-byte budget", ErrInjectedFault, c.plan.CutAfter)
	}
	n, err := c.Conn.Write(p[:allow])
	c.consume(n)
	if err == nil && allow < len(p) {
		c.Conn.Close() //nolint:errcheck // torn frame delivered; now the reset
		return n, fmt.Errorf("%w: write after %d-byte budget", ErrInjectedFault, c.plan.CutAfter)
	}
	return n, err
}

// PlanFunc assigns a fault plan to the ordinal-th accepted
// connection, drawing any randomness from rng (deterministic: the
// listener owns one seeded stream and calls plans in accept order).
type PlanFunc func(ordinal int, rng *prng.PRNG) FaultPlan

// FaultListener wraps a listener so every accepted connection carries
// an injected-fault plan. Plans come from Plan, or from a default
// schedule whose byte budgets grow with the connection ordinal and
// which leaves every fourth connection effectively clean — so a
// retrying client always makes progress, while early connections die
// quickly enough to exercise every failure path.
type FaultListener struct {
	net.Listener
	Plan PlanFunc // optional; nil uses the default schedule

	mu  sync.Mutex
	rng *prng.PRNG
	n   int
}

// NewFaultListener wraps ln with the deterministic fault schedule
// derived from seed.
func NewFaultListener(ln net.Listener, seed uint64) *FaultListener {
	return &FaultListener{Listener: ln, rng: prng.NewFromUint64(seed).Child("wire/fault-listener")}
}

// Accept implements net.Listener.
func (l *FaultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	ord := l.n
	l.n++
	plan := l.planFor(ord)
	l.mu.Unlock()
	return NewFaultConn(conn, plan), nil
}

// planFor draws the ordinal's plan; the caller holds l.mu (the rng is
// a shared stream, consumed in accept order for determinism).
func (l *FaultListener) planFor(ord int) FaultPlan {
	if l.Plan != nil {
		return l.Plan(ord, l.rng)
	}
	return defaultPlan(ord, l.rng)
}

// defaultPlan is the stock chaos schedule: small byte budgets early
// (handshakes and single calls get torn), doubling every other
// connection; every fourth connection gets a huge budget so retried
// work completes; occasional latency and one-shot stalls ride along.
func defaultPlan(ord int, rng *prng.PRNG) FaultPlan {
	var p FaultPlan
	if ord%4 == 3 {
		// Effectively clean: room for a whole test's traffic, yet still
		// finite so a long-lived fleet connection recycles eventually.
		p.CutAfter = 16 << 20
	} else {
		base := uint64(96) << min(uint64(ord/2), 12)
		p.CutAfter = base + rng.Uint64n(base)
	}
	switch rng.Uint64n(4) {
	case 0:
		p.ReadLatency = time.Duration(1+rng.Uint64n(3)) * time.Millisecond
	case 1:
		p.StallAfter = rng.Uint64n(p.CutAfter)
		p.StallFor = time.Duration(1+rng.Uint64n(10)) * time.Millisecond
	}
	return p
}
