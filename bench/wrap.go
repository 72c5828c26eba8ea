package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"

	"steghide"
)

// The benchmark measures every layer from outside: a counting device
// under Mount, a timing FS around the facade, and a counting listener
// under ServeListener. Counts run in timed and traced runs alike;
// clocks and spans only while a tracer is attached and enabled.

// countingDev wraps the volume's device. It keeps the batch fast
// paths (Device + BatchDevice) so the stack under test behaves as on a
// bare Mem device.
type countingDev struct {
	base steghide.BatchDevice
	tr   *tracer // nil in timed runs

	// journalEnd is one past the last block of the journal ring
	// ([1, journalEnd)); 0 until the volume is mounted or when the
	// volume has no ring.
	journalEnd atomic.Uint64

	readCalls, writeCalls     atomic.Uint64
	blocksRead, blocksWritten atomic.Uint64
	journalWrites             atomic.Uint64
	busyNs, journalBusyNs     atomic.Int64

	// corrupt, when set, flips one byte of every block read back — the
	// negative test's proof that the checker checks.
	corrupt atomic.Bool
}

// devCounts is a snapshot of a countingDev's counters.
type devCounts struct {
	readCalls, writeCalls     uint64
	blocksRead, blocksWritten uint64
	journalWrites             uint64
	busyNs, journalBusyNs     int64
}

func newCountingDev(base steghide.BatchDevice, tr *tracer) *countingDev {
	return &countingDev{base: base, tr: tr}
}

func (d *countingDev) snapshot() devCounts {
	return devCounts{
		readCalls: d.readCalls.Load(), writeCalls: d.writeCalls.Load(),
		blocksRead: d.blocksRead.Load(), blocksWritten: d.blocksWritten.Load(),
		journalWrites: d.journalWrites.Load(),
		busyNs:        d.busyNs.Load(), journalBusyNs: d.journalBusyNs.Load(),
	}
}

func (c devCounts) sub(o devCounts) devCounts {
	return devCounts{
		readCalls: c.readCalls - o.readCalls, writeCalls: c.writeCalls - o.writeCalls,
		blocksRead: c.blocksRead - o.blocksRead, blocksWritten: c.blocksWritten - o.blocksWritten,
		journalWrites: c.journalWrites - o.journalWrites,
		busyNs:        c.busyNs - o.busyNs, journalBusyNs: c.journalBusyNs - o.journalBusyNs,
	}
}

func (d *countingDev) BlockSize() int    { return d.base.BlockSize() }
func (d *countingDev) NumBlocks() uint64 { return d.base.NumBlocks() }
func (d *countingDev) Close() error      { return d.base.Close() }

// inJournal counts how many written blocks land in the ring [1, end):
// of the contiguous run [first, first+n) when idx is nil, else of idx.
func (d *countingDev) inJournal(first uint64, n int, idx []uint64) uint64 {
	end := d.journalEnd.Load()
	if end == 0 {
		return 0
	}
	if idx == nil {
		lo, hi := max(first, 1), min(first+uint64(n), end)
		return max(hi, lo) - lo
	}
	var hits uint64
	for _, i := range idx {
		if i >= 1 && i < end {
			hits++
		}
	}
	return hits
}

// read accounts one read call of n blocks around do.
func (d *countingDev) read(n int, do func() error) error {
	d.readCalls.Add(1)
	d.blocksRead.Add(uint64(n))
	if !d.tr.on() {
		return do()
	}
	start := d.tr.now()
	err := do()
	end := d.tr.now()
	d.busyNs.Add(end - start)
	d.tr.record(spanDevRead, start, end, int32(n))
	return err
}

// write accounts one write call of n blocks, j of them in the ring.
func (d *countingDev) write(n int, j uint64, do func() error) error {
	d.writeCalls.Add(1)
	d.blocksWritten.Add(uint64(n))
	d.journalWrites.Add(j)
	if !d.tr.on() {
		return do()
	}
	start := d.tr.now()
	err := do()
	end := d.tr.now()
	d.busyNs.Add(end - start)
	kind := spanDevWrite
	if j > 0 {
		// Ring appends are single-slot writes, so a call is either all
		// journal or all data.
		kind = spanJournalWrite
		d.journalBusyNs.Add(end - start)
	}
	d.tr.record(kind, start, end, int32(n))
	return err
}

func (d *countingDev) flip(bufs ...[]byte) {
	if d.corrupt.Load() {
		for _, b := range bufs {
			b[len(b)/2] ^= 0x40
		}
	}
}

func (d *countingDev) ReadBlock(i uint64, buf []byte) error {
	err := d.read(1, func() error { return d.base.ReadBlock(i, buf) })
	d.flip(buf)
	return err
}

func (d *countingDev) WriteBlock(i uint64, data []byte) error {
	return d.write(1, d.inJournal(i, 1, nil), func() error { return d.base.WriteBlock(i, data) })
}

func (d *countingDev) ReadBlocks(start uint64, bufs [][]byte) error {
	err := d.read(len(bufs), func() error { return d.base.ReadBlocks(start, bufs) })
	d.flip(bufs...)
	return err
}

func (d *countingDev) WriteBlocks(start uint64, data [][]byte) error {
	return d.write(len(data), d.inJournal(start, len(data), nil),
		func() error { return d.base.WriteBlocks(start, data) })
}

func (d *countingDev) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	err := d.read(len(bufs), func() error { return d.base.ReadBlocksAt(idx, bufs) })
	d.flip(bufs...)
	return err
}

func (d *countingDev) WriteBlocksAt(idx []uint64, data [][]byte) error {
	return d.write(len(data), d.inJournal(0, 0, idx),
		func() error { return d.base.WriteBlocksAt(idx, data) })
}

// callKind names one facade call for the timing FS.
type callKind uint8

const (
	callCreate callKind = iota
	callOpenRead
	callOpenWrite
	callSave
	callTruncate
	callStat
	callList
	callCreateDummy
	callReadAt     // multi-block read
	callWriteAt    // multi-block write
	callReadBlock  // ReadAt of at most one block
	callWriteBlock // WriteAt of at most one block
	callCloseRead
	callCloseWrite
	callBurst // DummyUpdateBurst: not an FS call, but the op's only call
	numCallKinds
)

var callKindNames = [numCallKinds]string{
	"create", "open_read", "open_write", "save", "truncate", "stat", "list", "create_dummy",
	"read_at", "write_at", "read_block", "write_block", "close_read", "close_write", "burst",
}

// timingFS wraps a steghide.FS so each interface call becomes a span.
// Only traced runs use it; timed runs drive the bare FS.
type timingFS struct {
	steghide.FS
	tr    *tracer
	block int // transfers up to this many bytes count as single-block
}

func (t *timingFS) Create(ctx context.Context, path string) error {
	defer t.tr.call(callCreate)()
	return t.FS.Create(ctx, path)
}

func (t *timingFS) OpenRead(ctx context.Context, path string) (steghide.ReadHandle, error) {
	defer t.tr.call(callOpenRead)()
	h, err := t.FS.OpenRead(ctx, path)
	if err != nil {
		return nil, err
	}
	return &timingHandle{r: h, tr: t.tr, block: t.block}, nil
}

func (t *timingFS) OpenWrite(ctx context.Context, path string) (steghide.WriteHandle, error) {
	defer t.tr.call(callOpenWrite)()
	h, err := t.FS.OpenWrite(ctx, path)
	if err != nil {
		return nil, err
	}
	return &timingHandle{w: h, tr: t.tr, block: t.block}, nil
}

func (t *timingFS) Save(ctx context.Context, path string) error {
	defer t.tr.call(callSave)()
	return t.FS.Save(ctx, path)
}

func (t *timingFS) Truncate(ctx context.Context, path string, size uint64) error {
	defer t.tr.call(callTruncate)()
	return t.FS.Truncate(ctx, path, size)
}

func (t *timingFS) Stat(ctx context.Context, path string) (steghide.FileInfo, error) {
	defer t.tr.call(callStat)()
	return t.FS.Stat(ctx, path)
}

func (t *timingFS) List(ctx context.Context) ([]string, error) {
	defer t.tr.call(callList)()
	return t.FS.List(ctx)
}

func (t *timingFS) CreateDummy(ctx context.Context, path string, blocks uint64) error {
	defer t.tr.call(callCreateDummy)()
	return t.FS.CreateDummy(ctx, path, blocks)
}

// timingHandle times reads, writes and the saving close of one handle.
type timingHandle struct {
	r     steghide.ReadHandle
	w     steghide.WriteHandle
	tr    *tracer
	block int
}

func (h *timingHandle) ReadAt(p []byte, off int64) (int, error) {
	kind := callReadAt
	if len(p) <= h.block {
		kind = callReadBlock
	}
	defer h.tr.call(kind)()
	return h.r.ReadAt(p, off)
}

func (h *timingHandle) WriteAt(p []byte, off int64) (int, error) {
	kind := callWriteAt
	if len(p) <= h.block {
		kind = callWriteBlock
	}
	defer h.tr.call(kind)()
	return h.w.WriteAt(p, off)
}

func (h *timingHandle) Close() error {
	if h.r != nil {
		defer h.tr.call(callCloseRead)()
		return h.r.Close()
	}
	defer h.tr.call(callCloseWrite)()
	return h.w.Close()
}

// countingListener wraps the listener handed to ServeListener, so
// every server-side connection is counted (and, traced, timed).
type countingListener struct {
	net.Listener
	tr *tracer

	writes            atomic.Uint64
	bytesIn, bytesOut atomic.Uint64
	requests          atomic.Uint64 // write-to-read turnarounds: one per request
	serverBusyNs      atomic.Int64  // traced: request read to reply written
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l, wrote: true}, nil
}

// wireCounts is a snapshot of the listener's counters.
type wireCounts struct {
	writes, bytesIn, bytesOut, requests uint64
}

func (l *countingListener) snapshot() wireCounts {
	if l == nil {
		return wireCounts{}
	}
	return wireCounts{l.writes.Load(), l.bytesIn.Load(), l.bytesOut.Load(), l.requests.Load()}
}

func (c wireCounts) sub(o wireCounts) wireCounts {
	return wireCounts{c.writes - o.writes, c.bytesIn - o.bytesIn, c.bytesOut - o.bytesOut, c.requests - o.requests}
}

// countingConn is one server-side connection. The server reads a
// request, works, and writes the reply: the stretch from the last
// read's return to the reply's last byte is the server's busy time,
// and whatever remains of the client's facade span is the wire's.
type countingConn struct {
	net.Conn
	l *countingListener

	mu       sync.Mutex
	wrote    bool  // the previous call on this conn was a Write
	busyFrom int64 // tracer time the server's current busy stretch is booked up to
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.bytesIn.Add(uint64(n))
	c.mu.Lock()
	if c.wrote && n > 0 {
		c.wrote = false
		c.l.requests.Add(1)
	}
	if c.l.tr.on() {
		c.busyFrom = c.l.tr.now()
	}
	c.mu.Unlock()
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	c.l.bytesOut.Add(uint64(len(p)))
	traced := c.l.tr.on()
	var start int64
	if traced {
		start = c.l.tr.now()
	}
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.wrote = true
	if traced {
		end := c.l.tr.now()
		c.l.tr.record(spanConnWrite, start, end, int32(len(p)))
		// A reply written in two calls books its second stretch from
		// the end of the first, not from the request again.
		if c.busyFrom > 0 {
			c.l.serverBusyNs.Add(end - c.busyFrom)
		}
		c.busyFrom = end
	}
	c.mu.Unlock()
	return n, err
}
