package blockdev

import (
	"sync"
	"sync/atomic"
)

// Op is the direction of a traced access.
type Op uint8

// Access directions.
const (
	OpRead Op = iota
	OpWrite
)

func opOf(write bool) Op {
	if write {
		return OpWrite
	}
	return OpRead
}

// String returns "read" or "write".
func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Event is one observed access: what an attacker tapping the
// agent⇄storage channel sees (§3.2.2, second attacker group). The
// payload is deliberately absent — it is ciphertext and carries no
// pattern beyond its existence. A batched contiguous access is one
// event covering Count blocks; Count of 0 or 1 is a single block.
type Event struct {
	Seq   uint64
	Op    Op
	Block uint64
	Count uint64
}

// Span returns how many blocks the event covers (at least 1).
func (e Event) Span() uint64 {
	if e.Count < 2 {
		return 1
	}
	return e.Count
}

// ExpandEvents flattens ranged events into one event per block, for
// consumers that analyze per-block address streams. Single-block
// streams are returned unchanged (no copy).
func ExpandEvents(events []Event) []Event {
	total := 0
	for _, e := range events {
		total += int(e.Span())
	}
	if total == len(events) {
		return events
	}
	out := make([]Event, 0, total)
	for _, e := range events {
		n := e.Span()
		for i := uint64(0); i < n; i++ {
			out = append(out, Event{Seq: e.Seq, Op: e.Op, Block: e.Block + i})
		}
	}
	return out
}

// Tracer receives every access on a Traced device.
type Tracer interface {
	Record(Event)
}

// Traced wraps a device and publishes every access to a Tracer.
type Traced struct {
	Device
	tracer Tracer
	seq    atomic.Uint64
}

// NewTraced wraps base; every access is forwarded to tracer.
func NewTraced(base Device, tracer Tracer) *Traced {
	return &Traced{Device: base, tracer: tracer}
}

// record publishes one access with the next sequence number.
func (t *Traced) record(op Op, block, count uint64) {
	t.tracer.Record(Event{Seq: t.seq.Add(1), Op: op, Block: block, Count: count})
}

// Collector is a Tracer that retains every event in memory.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Record implements Tracer.
func (c *Collector) Record(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of everything recorded so far.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Len returns the number of recorded events.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Reset discards recorded events.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.events = c.events[:0]
	c.mu.Unlock()
}

// Counter is a Tracer that only counts reads and writes; cheaper than
// Collector for long experiments.
type Counter struct {
	reads  atomic.Uint64
	writes atomic.Uint64
}

// Record implements Tracer.
func (c *Counter) Record(e Event) {
	if e.Op == OpRead {
		c.reads.Add(e.Span())
	} else {
		c.writes.Add(e.Span())
	}
}

// Reads returns the number of read events seen.
func (c *Counter) Reads() uint64 { return c.reads.Load() }

// Writes returns the number of write events seen.
func (c *Counter) Writes() uint64 { return c.writes.Load() }

// Total returns reads + writes.
func (c *Counter) Total() uint64 { return c.Reads() + c.Writes() }

// Reset zeroes the counters.
func (c *Counter) Reset() {
	c.reads.Store(0)
	c.writes.Store(0)
}

// MultiTracer fans one event stream out to several tracers.
type MultiTracer []Tracer

// Record implements Tracer.
func (m MultiTracer) Record(e Event) {
	for _, t := range m {
		t.Record(e)
	}
}
