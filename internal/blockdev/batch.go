package blockdev

import (
	"errors"
	"fmt"
	"sync"
)

// Batch I/O plane. The constructions of the paper are throughput-bound
// on bulk block movement — §4's relocation and dummy traffic, §5's
// reshuffle (external merge sort) — so every device offers an optional
// multi-block fast path: one lock acquisition on Mem, one positional
// syscall on File, one round trip on wire.RemoteDevice, one
// sequential-pass charge on Sim, one gate turn on Gated. Callers go
// through the package-level helpers ReadBlocks/WriteBlocks (and the
// scattered-index *At variants), which use the fast path when the
// device provides one and fall back to a per-block loop otherwise.
//
// Error semantics: helpers validate the whole batch up front (no I/O
// on a malformed request). On sequential devices (Mem, File, Sub,
// the loop fallback, FaultDevice) a device error mid-batch leaves a
// well-defined prefix — every block before the failing one has been
// transferred, none at or after it. Concurrent composites (Striped
// over members with real I/O latency, and anything built on them) fan
// sub-batches out in parallel, so a failed batch there may have
// transferred an arbitrary subset; each member's own sub-batch is
// still prefix-consistent. A Striped whose members are all
// memory-speed runs its sub-batches inline (see fanOut), in member
// order.

// BatchDevice is implemented by devices with a native multi-block
// fast path. ReadBlocks/WriteBlocks move the contiguous block range
// [start, start+len(bufs)); the *At variants move an arbitrary index
// set (idx[i] pairs with bufs[i]). Like Device's single-block methods,
// all four must be safe for concurrent use.
type BatchDevice interface {
	Device
	ReadBlocks(start uint64, bufs [][]byte) error
	WriteBlocks(start uint64, data [][]byte) error
	ReadBlocksAt(idx []uint64, bufs [][]byte) error
	WriteBlocksAt(idx []uint64, data [][]byte) error
}

// ErrBatchShape reports index and buffer slices of different lengths.
var ErrBatchShape = errors.New("blockdev: index count != buffer count")

// checkBatch validates a contiguous batch against a device.
func checkBatch(d Device, start uint64, bufs [][]byte) error {
	n := uint64(len(bufs))
	if n == 0 {
		return nil
	}
	if start+n > d.NumBlocks() || start+n < start {
		return fmt.Errorf("%w: [%d,%d) beyond %d", ErrOutOfRange, start, start+n, d.NumBlocks())
	}
	bs := d.BlockSize()
	for _, b := range bufs {
		if len(b) != bs {
			return fmt.Errorf("%w: %d != %d", ErrBufSize, len(b), bs)
		}
	}
	return nil
}

// checkBatchAt validates a scattered batch against a device.
func checkBatchAt(d Device, idx []uint64, bufs [][]byte) error {
	if len(idx) != len(bufs) {
		return fmt.Errorf("%w: %d != %d", ErrBatchShape, len(idx), len(bufs))
	}
	bs := d.BlockSize()
	for i, b := range bufs {
		if idx[i] >= d.NumBlocks() {
			return fmt.Errorf("%w: %d >= %d", ErrOutOfRange, idx[i], d.NumBlocks())
		}
		if len(b) != bs {
			return fmt.Errorf("%w: %d != %d", ErrBufSize, len(b), bs)
		}
	}
	return nil
}

// ReadBlocks fills bufs with the contiguous blocks [start,
// start+len(bufs)), using the device's native fast path when it has
// one and a per-block loop otherwise.
func ReadBlocks(d Device, start uint64, bufs [][]byte) error {
	if len(bufs) == 0 {
		return nil
	}
	if bd, ok := d.(BatchDevice); ok {
		return bd.ReadBlocks(start, bufs)
	}
	if err := checkBatch(d, start, bufs); err != nil {
		return err
	}
	for i, b := range bufs {
		if err := d.ReadBlock(start+uint64(i), b); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlocks stores data as the contiguous blocks [start,
// start+len(data)); fast path when available, loop otherwise.
func WriteBlocks(d Device, start uint64, data [][]byte) error {
	if len(data) == 0 {
		return nil
	}
	if bd, ok := d.(BatchDevice); ok {
		return bd.WriteBlocks(start, data)
	}
	if err := checkBatch(d, start, data); err != nil {
		return err
	}
	for i, b := range data {
		if err := d.WriteBlock(start+uint64(i), b); err != nil {
			return err
		}
	}
	return nil
}

// ReadBlocksAt fills bufs[i] with block idx[i] for every i; fast path
// when available, loop otherwise.
func ReadBlocksAt(d Device, idx []uint64, bufs [][]byte) error {
	if len(idx) == 0 && len(bufs) == 0 {
		return nil
	}
	if bd, ok := d.(BatchDevice); ok {
		return bd.ReadBlocksAt(idx, bufs)
	}
	if err := checkBatchAt(d, idx, bufs); err != nil {
		return err
	}
	for i, b := range bufs {
		if err := d.ReadBlock(idx[i], b); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlocksAt stores data[i] as block idx[i] for every i; fast path
// when available, loop otherwise.
func WriteBlocksAt(d Device, idx []uint64, data [][]byte) error {
	if len(idx) == 0 && len(data) == 0 {
		return nil
	}
	if bd, ok := d.(BatchDevice); ok {
		return bd.WriteBlocksAt(idx, data)
	}
	if err := checkBatchAt(d, idx, data); err != nil {
		return err
	}
	for i, b := range data {
		if err := d.WriteBlock(idx[i], b); err != nil {
			return err
		}
	}
	return nil
}

// AllocBlocks returns n block buffers carved out of one allocation —
// the standard way batch callers build their buffer vectors without
// paying one make per block.
func AllocBlocks(n, blockSize int) [][]byte {
	slab := make([]byte, n*blockSize)
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = slab[i*blockSize : (i+1)*blockSize]
	}
	return bufs
}

// --- Mem ----------------------------------------------------------------

// ReadBlocks implements BatchDevice: one slab scan, one lock
// acquisition per stripe the run crosses.
func (m *Mem) ReadBlocks(start uint64, bufs [][]byte) error {
	if err := checkBatch(m, start, bufs); err != nil {
		return err
	}
	bs := uint64(m.blockSize)
	var held *memStripe
	for k, b := range bufs {
		i := start + uint64(k)
		held = m.hold(held, i)
		copy(b, m.slab[i*bs:(i+1)*bs])
	}
	if held != nil {
		held.Unlock()
	}
	return nil
}

// WriteBlocks implements BatchDevice.
func (m *Mem) WriteBlocks(start uint64, data [][]byte) error {
	if err := checkBatch(m, start, data); err != nil {
		return err
	}
	bs := uint64(m.blockSize)
	var held *memStripe
	for k, b := range data {
		i := start + uint64(k)
		held = m.hold(held, i)
		copy(m.slab[i*bs:(i+1)*bs], b)
	}
	if held != nil {
		held.Unlock()
	}
	return nil
}

// ReadBlocksAt implements BatchDevice.
func (m *Mem) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	if err := checkBatchAt(m, idx, bufs); err != nil {
		return err
	}
	bs := uint64(m.blockSize)
	var held *memStripe
	for k, b := range bufs {
		held = m.hold(held, idx[k])
		copy(b, m.slab[idx[k]*bs:(idx[k]+1)*bs])
	}
	if held != nil {
		held.Unlock()
	}
	return nil
}

// WriteBlocksAt implements BatchDevice.
func (m *Mem) WriteBlocksAt(idx []uint64, data [][]byte) error {
	if err := checkBatchAt(m, idx, data); err != nil {
		return err
	}
	bs := uint64(m.blockSize)
	var held *memStripe
	for k, b := range data {
		held = m.hold(held, idx[k])
		copy(m.slab[idx[k]*bs:(idx[k]+1)*bs], b)
	}
	if held != nil {
		held.Unlock()
	}
	return nil
}

// --- File ---------------------------------------------------------------

// slab borrows a contiguous scratch buffer of at least n bytes from
// the file's pool.
func (d *File) slab(n int) []byte {
	if v := d.scratch.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func (d *File) releaseSlab(b []byte) {
	b = b[:cap(b)]
	d.scratch.Put(&b)
}

// ReadBlocks implements BatchDevice: one contiguous pread instead of
// len(bufs) syscalls.
func (d *File) ReadBlocks(start uint64, bufs [][]byte) error {
	if err := checkBatch(d, start, bufs); err != nil {
		return err
	}
	if len(bufs) == 0 {
		return nil
	}
	n := len(bufs) * d.blockSize
	slab := d.slab(n)
	if _, err := d.f.ReadAt(slab, int64(start)*int64(d.blockSize)); err != nil {
		d.releaseSlab(slab)
		return fmt.Errorf("blockdev: read blocks [%d,%d): %w", start, start+uint64(len(bufs)), err)
	}
	for i, b := range bufs {
		copy(b, slab[i*d.blockSize:])
	}
	d.releaseSlab(slab)
	return nil
}

// WriteBlocks implements BatchDevice: one contiguous pwrite.
func (d *File) WriteBlocks(start uint64, data [][]byte) error {
	if err := checkBatch(d, start, data); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	slab := d.slab(len(data) * d.blockSize)
	for i, b := range data {
		copy(slab[i*d.blockSize:], b)
	}
	_, err := d.f.WriteAt(slab, int64(start)*int64(d.blockSize))
	d.releaseSlab(slab)
	if err != nil {
		return fmt.Errorf("blockdev: write blocks [%d,%d): %w", start, start+uint64(len(data)), err)
	}
	return nil
}

// ReadBlocksAt implements BatchDevice, coalescing ascending runs of
// consecutive indices into contiguous preads.
func (d *File) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	if err := checkBatchAt(d, idx, bufs); err != nil {
		return err
	}
	for lo := 0; lo < len(idx); {
		hi := lo + 1
		for hi < len(idx) && idx[hi] == idx[hi-1]+1 {
			hi++
		}
		if err := d.ReadBlocks(idx[lo], bufs[lo:hi]); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// WriteBlocksAt implements BatchDevice, coalescing runs like
// ReadBlocksAt.
func (d *File) WriteBlocksAt(idx []uint64, data [][]byte) error {
	if err := checkBatchAt(d, idx, data); err != nil {
		return err
	}
	for lo := 0; lo < len(idx); {
		hi := lo + 1
		for hi < len(idx) && idx[hi] == idx[hi-1]+1 {
			hi++
		}
		if err := d.WriteBlocks(idx[lo], data[lo:hi]); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// --- SubDevice ----------------------------------------------------------

// ReadBlocks implements BatchDevice by translating into the parent's
// address space; the parent's fast path (if any) does the work.
func (s *SubDevice) ReadBlocks(start uint64, bufs [][]byte) error {
	if err := checkBatch(s, start, bufs); err != nil {
		return err
	}
	return ReadBlocks(s.parent, s.start+start, bufs)
}

// WriteBlocks implements BatchDevice.
func (s *SubDevice) WriteBlocks(start uint64, data [][]byte) error {
	if err := checkBatch(s, start, data); err != nil {
		return err
	}
	return WriteBlocks(s.parent, s.start+start, data)
}

// translate maps sub-relative indices to parent indices.
func (s *SubDevice) translate(idx []uint64) ([]uint64, error) {
	out := make([]uint64, len(idx))
	for i, x := range idx {
		if x >= s.count {
			return nil, fmt.Errorf("%w: %d >= %d", ErrOutOfRange, x, s.count)
		}
		out[i] = s.start + x
	}
	return out, nil
}

// ReadBlocksAt implements BatchDevice.
func (s *SubDevice) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	if err := checkBatchAt(s, idx, bufs); err != nil {
		return err
	}
	abs, err := s.translate(idx)
	if err != nil {
		return err
	}
	return ReadBlocksAt(s.parent, abs, bufs)
}

// WriteBlocksAt implements BatchDevice.
func (s *SubDevice) WriteBlocksAt(idx []uint64, data [][]byte) error {
	if err := checkBatchAt(s, idx, data); err != nil {
		return err
	}
	abs, err := s.translate(idx)
	if err != nil {
		return err
	}
	return WriteBlocksAt(s.parent, abs, data)
}

// --- Striped ------------------------------------------------------------

// memberBatch is one member's share of a striped batch.
type memberBatch struct {
	member int
	start  uint64   // local start (contiguous batches)
	idx    []uint64 // local indices (scattered batches)
	bufs   [][]byte
}

// splitContiguous partitions the volume range [start, start+n) into
// per-member sub-batches. Block start+j lives on member (start+j) mod
// k; the local indices each member receives are themselves contiguous,
// so every sub-batch can use the member's contiguous fast path.
func (s *Striped) splitContiguous(start uint64, bufs [][]byte) []memberBatch {
	k := uint64(len(s.members))
	n := uint64(len(bufs))
	var parts []memberBatch
	for m := uint64(0); m < k; m++ {
		firstJ := (m + k - start%k) % k
		if firstJ >= n {
			continue
		}
		count := (n - firstJ + k - 1) / k
		mb := memberBatch{
			member: int(m),
			start:  (start + firstJ) / k,
			bufs:   make([][]byte, 0, count),
		}
		for j := firstJ; j < n; j += k {
			mb.bufs = append(mb.bufs, bufs[j])
		}
		parts = append(parts, mb)
	}
	return parts
}

// splitScattered groups a scattered batch by owning member.
func (s *Striped) splitScattered(idx []uint64, bufs [][]byte) []memberBatch {
	parts := make([]*memberBatch, len(s.members))
	var order []*memberBatch
	for i, x := range idx {
		m, local := s.Locate(x)
		if parts[m] == nil {
			parts[m] = &memberBatch{member: m}
			order = append(order, parts[m])
		}
		parts[m].idx = append(parts[m].idx, local)
		parts[m].bufs = append(parts[m].bufs, bufs[i])
	}
	out := make([]memberBatch, len(order))
	for i, p := range order {
		out[i] = *p
	}
	return out
}

// fanOut runs one function per member sub-batch, concurrently when
// several members are involved, and returns the first error. Callers
// have already routed all-memory stripes to the direct per-block
// path, so every batch arriving here has real I/O latency to hide.
func (s *Striped) fanOut(parts []memberBatch, f func(memberBatch) error) error {
	if len(parts) == 1 {
		return f(parts[0])
	}
	var wg sync.WaitGroup
	errs := make([]error, len(parts))
	for i, p := range parts {
		wg.Add(1)
		go func(i int, p memberBatch) {
			defer wg.Done()
			errs[i] = f(p)
		}(i, p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// directContiguous moves a contiguous batch block by block without
// building the per-member split — the cheap-member fast path, where
// split allocation and goroutine fan-out both cost more than the
// members' memcpy-speed I/O.
func (s *Striped) directContiguous(start uint64, bufs [][]byte, write bool) error {
	k := uint64(len(s.members))
	for j := range bufs {
		i := start + uint64(j)
		m, local := int(i%k), i/k
		var err error
		if write {
			err = s.members[m].WriteBlock(local, bufs[j])
		} else {
			err = s.members[m].ReadBlock(local, bufs[j])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// directScattered is directContiguous for an arbitrary index set.
func (s *Striped) directScattered(idx []uint64, bufs [][]byte, write bool) error {
	k := uint64(len(s.members))
	for j, i := range idx {
		m, local := int(i%k), i/k
		var err error
		if write {
			err = s.members[m].WriteBlock(local, bufs[j])
		} else {
			err = s.members[m].ReadBlock(local, bufs[j])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadBlocks implements BatchDevice: the batch fans out to the
// members concurrently, each receiving one contiguous sub-batch;
// all-memory stripes skip the split and move blocks inline.
func (s *Striped) ReadBlocks(start uint64, bufs [][]byte) error {
	if err := checkBatch(s, start, bufs); err != nil {
		return err
	}
	if s.allFast {
		return s.directContiguous(start, bufs, false)
	}
	return s.fanOut(s.splitContiguous(start, bufs), func(mb memberBatch) error {
		return ReadBlocks(s.members[mb.member], mb.start, mb.bufs)
	})
}

// WriteBlocks implements BatchDevice.
func (s *Striped) WriteBlocks(start uint64, data [][]byte) error {
	if err := checkBatch(s, start, data); err != nil {
		return err
	}
	if s.allFast {
		return s.directContiguous(start, data, true)
	}
	return s.fanOut(s.splitContiguous(start, data), func(mb memberBatch) error {
		return WriteBlocks(s.members[mb.member], mb.start, mb.bufs)
	})
}

// ReadBlocksAt implements BatchDevice.
func (s *Striped) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	if err := checkBatchAt(s, idx, bufs); err != nil {
		return err
	}
	if len(idx) == 0 {
		return nil
	}
	if s.allFast {
		return s.directScattered(idx, bufs, false)
	}
	return s.fanOut(s.splitScattered(idx, bufs), func(mb memberBatch) error {
		return ReadBlocksAt(s.members[mb.member], mb.idx, mb.bufs)
	})
}

// WriteBlocksAt implements BatchDevice.
func (s *Striped) WriteBlocksAt(idx []uint64, data [][]byte) error {
	if err := checkBatchAt(s, idx, data); err != nil {
		return err
	}
	if len(idx) == 0 {
		return nil
	}
	if s.allFast {
		return s.directScattered(idx, data, true)
	}
	return s.fanOut(s.splitScattered(idx, data), func(mb memberBatch) error {
		return WriteBlocksAt(s.members[mb.member], mb.idx, mb.bufs)
	})
}

// --- Traced -------------------------------------------------------------

// Batched trace events are recorded only when the inner batch
// succeeds as a whole: a batch failing at block k transferred a
// k-block prefix (on sequential devices) that the trace does not
// show. Analyzers only consume traces from healthy runs, where the
// recorded stream is exactly the per-block loop's.

// ReadBlocks implements BatchDevice: the inner device's fast path
// runs, then a single ranged event is recorded.
func (t *Traced) ReadBlocks(start uint64, bufs [][]byte) error {
	if err := ReadBlocks(t.Device, start, bufs); err != nil {
		return err
	}
	if len(bufs) > 0 {
		t.tracer.Record(Event{Seq: t.seq.Add(1), Op: OpRead, Block: start, Count: uint64(len(bufs))})
	}
	return nil
}

// WriteBlocks implements BatchDevice.
func (t *Traced) WriteBlocks(start uint64, data [][]byte) error {
	if err := WriteBlocks(t.Device, start, data); err != nil {
		return err
	}
	if len(data) > 0 {
		t.tracer.Record(Event{Seq: t.seq.Add(1), Op: OpWrite, Block: start, Count: uint64(len(data))})
	}
	return nil
}

// ReadBlocksAt implements BatchDevice. Scattered accesses have no
// compact range form, so one event per block is recorded, in batch
// order — exactly the stream a looping caller would have produced.
func (t *Traced) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	if err := ReadBlocksAt(t.Device, idx, bufs); err != nil {
		return err
	}
	for _, i := range idx {
		t.tracer.Record(Event{Seq: t.seq.Add(1), Op: OpRead, Block: i})
	}
	return nil
}

// WriteBlocksAt implements BatchDevice.
func (t *Traced) WriteBlocksAt(idx []uint64, data [][]byte) error {
	if err := WriteBlocksAt(t.Device, idx, data); err != nil {
		return err
	}
	for _, i := range idx {
		t.tracer.Record(Event{Seq: t.seq.Add(1), Op: OpWrite, Block: i})
	}
	return nil
}

// --- Sim ----------------------------------------------------------------

// ReadBlocks implements BatchDevice, charging the disk model a single
// sequential pass (one seek, len(bufs) transfers).
func (s *Sim) ReadBlocks(start uint64, bufs [][]byte) error {
	if err := ReadBlocks(s.Device, start, bufs); err != nil {
		return err
	}
	s.disk.AccessRange(start, len(bufs), false)
	return nil
}

// WriteBlocks implements BatchDevice.
func (s *Sim) WriteBlocks(start uint64, data [][]byte) error {
	if err := WriteBlocks(s.Device, start, data); err != nil {
		return err
	}
	s.disk.AccessRange(start, len(data), true)
	return nil
}

// ReadBlocksAt implements BatchDevice; scattered batches are charged
// block by block (the head really must visit every index).
func (s *Sim) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	if err := ReadBlocksAt(s.Device, idx, bufs); err != nil {
		return err
	}
	for _, i := range idx {
		s.disk.Access(i, false)
	}
	return nil
}

// WriteBlocksAt implements BatchDevice.
func (s *Sim) WriteBlocksAt(idx []uint64, data [][]byte) error {
	if err := WriteBlocksAt(s.Device, idx, data); err != nil {
		return err
	}
	for _, i := range idx {
		s.disk.Access(i, true)
	}
	return nil
}

// --- Gated --------------------------------------------------------------

// ReadBlocks implements BatchDevice: the whole batch is one turn of
// the gate, so batches stay atomic under deterministic interleaving.
func (g *Gated) ReadBlocks(start uint64, bufs [][]byte) error {
	var err error
	g.gate.Do(g.id, func() { err = ReadBlocks(g.Device, start, bufs) })
	return err
}

// WriteBlocks implements BatchDevice.
func (g *Gated) WriteBlocks(start uint64, data [][]byte) error {
	var err error
	g.gate.Do(g.id, func() { err = WriteBlocks(g.Device, start, data) })
	return err
}

// ReadBlocksAt implements BatchDevice.
func (g *Gated) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	var err error
	g.gate.Do(g.id, func() { err = ReadBlocksAt(g.Device, idx, bufs) })
	return err
}

// WriteBlocksAt implements BatchDevice.
func (g *Gated) WriteBlocksAt(idx []uint64, data [][]byte) error {
	var err error
	g.gate.Do(g.id, func() { err = WriteBlocksAt(g.Device, idx, data) })
	return err
}
