package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names what a span measured.
type spanKind uint8

const (
	spanOp           spanKind = iota // one workload operation (WriteFile, burst, ...)
	spanCall                         // one facade call inside an op
	spanDevRead                      // one device read call
	spanDevWrite                     // one device write call outside the journal ring
	spanJournalWrite                 // one device write call into the journal ring
	spanConnWrite                    // one server-side connection write
)

var spanKindNames = [...]string{"op", "call", "dev_read", "dev_write", "journal_write", "conn_write"}

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch; Parent indexes the enclosing span (-1: none, which
// for device and connection spans means agent.background).
type span struct {
	Kind   spanKind
	Sub    uint8 // op kind or call kind
	Start  int64
	End    int64
	Parent int32
	Op     int32 // id of the operation the span belongs to, -1 outside any
	N      int32 // blocks (device), bytes (conn)
}

// maxSpans bounds the in-memory span log (32 B each); past it spans
// are still aggregated, only not retained, and the report says how
// many were dropped.
const maxSpans = 4 << 20

// kindAgg aggregates the calls of one kind.
type kindAgg struct {
	durs                      []int64
	totalNs, devNs, serverNs  int64
	blocksRead, blocksWritten uint64
	journalWrites             uint64
}

// tracer records spans from the benchmark's wrappers. A traced pass
// runs one client, so at any instant at most one op and one facade
// call are open and every device or connection span nests in that
// call by time; anything recorded while no call is open is background
// work (the daemon).
type tracer struct {
	enabled atomic.Bool
	epoch   time.Time
	dev     *countingDev
	ln      *countingListener // nil for in-process workloads

	mu      sync.Mutex
	spans   []span
	dropped int
	curOp   int32 // index of the open op span, -1 if none
	curCall int32 // index of the open call span, -1 if none
	opID    int32
	callDev int64 // device ns inside the open call
	bgDevNs int64 // device ns outside any call
	calls   [numCallKinds]kindAgg
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), curOp: -1, curCall: -1}
}

// on reports whether spans are being recorded; nil-safe so wrappers
// built without a tracer take the untimed path.
func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reset drops everything recorded so far (between the reference pass
// and the traced pass).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
	t.dropped = 0
	t.curOp, t.curCall, t.opID = -1, -1, 0
	t.callDev, t.bgDevNs = 0, 0
	t.calls = [numCallKinds]kindAgg{}
}

// push appends a span and returns its index (-1 if the log is full);
// the caller holds t.mu.
func (t *tracer) push(s span) int32 {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// record books one finished device or connection span.
func (t *tracer) record(kind spanKind, start, end int64, n int32) {
	t.mu.Lock()
	parent, op := t.curCall, int32(-1)
	if t.curOp >= 0 {
		op = t.opID
	}
	if kind != spanConnWrite {
		if t.curCall >= 0 {
			t.callDev += end - start
		} else {
			t.bgDevNs += end - start
		}
	}
	t.push(span{Kind: kind, Start: start, End: end, Parent: parent, Op: op, N: n})
	t.mu.Unlock()
}

// beginOp opens the span of one workload operation and returns the
// function that closes it.
func (t *tracer) beginOp(kind opKind) func() {
	if !t.on() {
		return func() {}
	}
	start := t.now()
	t.mu.Lock()
	t.opID++
	idx := t.push(span{Kind: spanOp, Sub: uint8(kind), Start: start, Parent: -1, Op: t.opID})
	t.curOp = max(idx, 0)
	t.mu.Unlock()
	return func() {
		end := t.now()
		t.mu.Lock()
		if idx >= 0 {
			t.spans[idx].End = end
		}
		t.curOp = -1
		t.mu.Unlock()
	}
}

// call opens the span of one facade call and returns the function
// that closes it and books the call's device, server and self time.
func (t *tracer) call(kind callKind) func() {
	if !t.on() {
		return func() {}
	}
	devBefore := t.dev.snapshot()
	var srvBefore int64
	if t.ln != nil {
		srvBefore = t.ln.serverBusyNs.Load()
	}
	start := t.now()
	t.mu.Lock()
	op := int32(-1)
	if t.curOp >= 0 {
		op = t.opID
	}
	idx := t.push(span{Kind: spanCall, Sub: uint8(kind), Start: start, Parent: t.curOp, Op: op})
	t.curCall = max(idx, 0)
	t.callDev = 0
	t.mu.Unlock()
	return func() {
		end := t.now()
		dev := t.dev.snapshot().sub(devBefore)
		var srv int64
		if t.ln != nil {
			srv = t.ln.serverBusyNs.Load() - srvBefore
		}
		t.mu.Lock()
		if idx >= 0 {
			t.spans[idx].End = end
		}
		a := &t.calls[kind]
		a.durs = append(a.durs, end-start)
		a.totalNs += end - start
		a.devNs += t.callDev
		a.serverNs += srv
		a.blocksRead += dev.blocksRead
		a.blocksWritten += dev.blocksWritten - dev.journalWrites
		a.journalWrites += dev.journalWrites
		t.curCall = -1
		t.mu.Unlock()
	}
}

// spanJSON is a span as written to -out.
type spanJSON struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	N      int32  `json:"n,omitempty"`
}

// export renders the span log for -out.
func (t *tracer) export() []spanJSON {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]spanJSON, len(t.spans))
	for i, s := range t.spans {
		name := spanKindNames[s.Kind]
		switch s.Kind {
		case spanOp:
			name = "op." + opKindNames[s.Sub]
		case spanCall:
			name = "facade." + callKindNames[s.Sub]
		}
		out[i] = spanJSON{name, s.Start, s.End, s.Parent, s.Op, s.N}
	}
	return out
}
