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
// syscall per run on File, one round trip on wire.RemoteDevice, one
// sequential-pass charge on Sim. Callers go through the package-level
// helpers ReadBlocks/WriteBlocks (and the scattered-index *At
// variants), which use the fast path when the device provides one and
// fall back to a per-block loop otherwise. Inside the package a batch
// is one descriptor, and every device moves it in one method.
//
// Error semantics: a batch is validated whole before any I/O. On
// sequential devices (Mem, File, Sub, the loop fallback, and so
// FaultDevice) a device error mid-batch leaves a well-defined prefix —
// every block before the failing one has been transferred, none at or
// after it. Concurrent composites (Striped over members with real I/O
// latency, and anything built on them) fan sub-batches out in
// parallel, so a failed batch there may have transferred an arbitrary
// subset; each member's own sub-batch is still prefix-consistent. A
// Striped whose members are all memory-speed moves its blocks inline,
// in batch order.

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

// batch is one multi-block transfer: bufs[k] is block start+k of a
// contiguous run, or block idx[k] of a scattered one (at set).
type batch struct {
	start uint64
	idx   []uint64
	at    bool
	bufs  [][]byte
}

// block returns the address of bufs[k].
func (b batch) block(k int) uint64 {
	if b.at {
		return b.idx[k]
	}
	return b.start + uint64(k)
}

func (b batch) empty() bool { return len(b.bufs) == 0 && len(b.idx) == 0 }

// check validates the whole batch against d's geometry.
func (b batch) check(d Device) error {
	n := uint64(len(b.bufs))
	switch {
	case b.at && len(b.idx) != len(b.bufs):
		return fmt.Errorf("%w: %d != %d", ErrBatchShape, len(b.idx), len(b.bufs))
	case b.at:
		for _, i := range b.idx {
			if i >= d.NumBlocks() {
				return fmt.Errorf("%w: %d >= %d", ErrOutOfRange, i, d.NumBlocks())
			}
		}
	case n > 0 && (b.start+n > d.NumBlocks() || b.start+n < b.start):
		return fmt.Errorf("%w: [%d,%d) beyond %d", ErrOutOfRange, b.start, b.start+n, d.NumBlocks())
	}
	for _, buf := range b.bufs {
		if len(buf) != d.BlockSize() {
			return fmt.Errorf("%w: %d != %d", ErrBufSize, len(buf), d.BlockSize())
		}
	}
	return nil
}

// transfer moves b through d's fast path when it has one, and through
// a validated per-block loop otherwise.
func transfer(d Device, b batch, write bool) error {
	if b.empty() {
		return nil
	}
	if bd, ok := d.(BatchDevice); ok {
		switch {
		case b.at && write:
			return bd.WriteBlocksAt(b.idx, b.bufs)
		case b.at:
			return bd.ReadBlocksAt(b.idx, b.bufs)
		case write:
			return bd.WriteBlocks(b.start, b.bufs)
		default:
			return bd.ReadBlocks(b.start, b.bufs)
		}
	}
	if err := b.check(d); err != nil {
		return err
	}
	for k, buf := range b.bufs {
		if err := moveBlock(d, b.block(k), buf, write); err != nil {
			return err
		}
	}
	return nil
}

// moveBlock is one single-block transfer in the given direction.
func moveBlock(d Device, i uint64, buf []byte, write bool) error {
	if write {
		return d.WriteBlock(i, buf)
	}
	return d.ReadBlock(i, buf)
}

// ReadBlocks fills bufs with the contiguous blocks [start,
// start+len(bufs)), using the device's native fast path when it has
// one and a per-block loop otherwise.
func ReadBlocks(d Device, start uint64, bufs [][]byte) error {
	return transfer(d, batch{start: start, bufs: bufs}, false)
}

// WriteBlocks stores data as the contiguous blocks [start,
// start+len(data)); fast path when available, loop otherwise.
func WriteBlocks(d Device, start uint64, data [][]byte) error {
	return transfer(d, batch{start: start, bufs: data}, true)
}

// ReadBlocksAt fills bufs[i] with block idx[i] for every i; fast path
// when available, loop otherwise.
func ReadBlocksAt(d Device, idx []uint64, bufs [][]byte) error {
	return transfer(d, batch{idx: idx, at: true, bufs: bufs}, false)
}

// WriteBlocksAt stores data[i] as block idx[i] for every i; fast path
// when available, loop otherwise.
func WriteBlocksAt(d Device, idx []uint64, data [][]byte) error {
	return transfer(d, batch{idx: idx, at: true, bufs: data}, true)
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

// batch moves b in one slab scan, taking one lock per stripe it
// crosses.
func (m *Mem) batch(b batch, write bool) error {
	if err := b.check(m); err != nil {
		return err
	}
	bs := uint64(m.blockSize)
	var held *memStripe
	for k, buf := range b.bufs {
		i := b.block(k)
		held = m.hold(held, i)
		if write {
			copy(m.slab[i*bs:(i+1)*bs], buf)
		} else {
			copy(buf, m.slab[i*bs:(i+1)*bs])
		}
	}
	if held != nil {
		held.Unlock()
	}
	return nil
}

// ReadBlocks implements BatchDevice.
func (m *Mem) ReadBlocks(start uint64, bufs [][]byte) error {
	return m.batch(batch{start: start, bufs: bufs}, false)
}

// WriteBlocks implements BatchDevice.
func (m *Mem) WriteBlocks(start uint64, data [][]byte) error {
	return m.batch(batch{start: start, bufs: data}, true)
}

// ReadBlocksAt implements BatchDevice.
func (m *Mem) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	return m.batch(batch{idx: idx, at: true, bufs: bufs}, false)
}

// WriteBlocksAt implements BatchDevice.
func (m *Mem) WriteBlocksAt(idx []uint64, data [][]byte) error {
	return m.batch(batch{idx: idx, at: true, bufs: data}, true)
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

// batch coalesces b into runs of consecutive blocks and moves each run
// with one positional syscall; a contiguous batch is one run.
func (d *File) batch(b batch, write bool) error {
	if err := b.check(d); err != nil {
		return err
	}
	bs := d.blockSize
	for lo := 0; lo < len(b.bufs); {
		first, hi := b.block(lo), lo+1
		for hi < len(b.bufs) && b.block(hi) == first+uint64(hi-lo) {
			hi++
		}
		run := b.bufs[lo:hi]
		slab := d.slab(len(run) * bs)
		off := int64(first) * int64(bs)
		var err error
		if write {
			for k, buf := range run {
				copy(slab[k*bs:], buf)
			}
			_, err = d.f.WriteAt(slab, off)
		} else if _, err = d.f.ReadAt(slab, off); err == nil {
			for k, buf := range run {
				copy(buf, slab[k*bs:])
			}
		}
		d.releaseSlab(slab)
		if err != nil {
			return fmt.Errorf("blockdev: %s blocks [%d,%d): %w", opOf(write), first, first+uint64(len(run)), err)
		}
		lo = hi
	}
	return nil
}

// ReadBlocks implements BatchDevice.
func (d *File) ReadBlocks(start uint64, bufs [][]byte) error {
	return d.batch(batch{start: start, bufs: bufs}, false)
}

// WriteBlocks implements BatchDevice.
func (d *File) WriteBlocks(start uint64, data [][]byte) error {
	return d.batch(batch{start: start, bufs: data}, true)
}

// ReadBlocksAt implements BatchDevice.
func (d *File) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	return d.batch(batch{idx: idx, at: true, bufs: bufs}, false)
}

// WriteBlocksAt implements BatchDevice.
func (d *File) WriteBlocksAt(idx []uint64, data [][]byte) error {
	return d.batch(batch{idx: idx, at: true, bufs: data}, true)
}

// --- SubDevice ----------------------------------------------------------

// batch translates b into the parent's address space; the parent's
// fast path (if any) does the work.
func (s *SubDevice) batch(b batch, write bool) error {
	if err := b.check(s); err != nil {
		return err
	}
	if b.at {
		abs := make([]uint64, len(b.idx))
		for k, i := range b.idx {
			abs[k] = s.start + i
		}
		b.idx = abs
	} else {
		b.start += s.start
	}
	return transfer(s.parent, b, write)
}

// ReadBlocks implements BatchDevice.
func (s *SubDevice) ReadBlocks(start uint64, bufs [][]byte) error {
	return s.batch(batch{start: start, bufs: bufs}, false)
}

// WriteBlocks implements BatchDevice.
func (s *SubDevice) WriteBlocks(start uint64, data [][]byte) error {
	return s.batch(batch{start: start, bufs: data}, true)
}

// ReadBlocksAt implements BatchDevice.
func (s *SubDevice) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	return s.batch(batch{idx: idx, at: true, bufs: bufs}, false)
}

// WriteBlocksAt implements BatchDevice.
func (s *SubDevice) WriteBlocksAt(idx []uint64, data [][]byte) error {
	return s.batch(batch{idx: idx, at: true, bufs: data}, true)
}

// --- Striped ------------------------------------------------------------

// split partitions b by owning member: parts[m] is member m's share at
// its local indices, in batch order. Block start+j of a contiguous run
// lives on member (start+j) mod k, so each member's share of a run is
// itself a run and keeps the member's contiguous fast path.
func (s *Striped) split(b batch) []batch {
	parts := make([]batch, len(s.members))
	for k, buf := range b.bufs {
		m, local := s.Locate(b.block(k))
		p := &parts[m]
		if len(p.bufs) == 0 {
			p.start, p.at = local, b.at
		}
		if b.at {
			p.idx = append(p.idx, local)
		}
		p.bufs = append(p.bufs, buf)
	}
	return parts
}

// batch moves b across the members. All-memory stripes move blocks
// inline, since split allocation and goroutine fan-out both cost more
// than memcpy-speed I/O; otherwise each member's share runs
// concurrently, inline when one member holds the whole batch.
func (s *Striped) batch(b batch, write bool) error {
	if err := b.check(s); err != nil {
		return err
	}
	if s.allFast {
		for k, buf := range b.bufs {
			m, local := s.Locate(b.block(k))
			if err := moveBlock(s.members[m], local, buf, write); err != nil {
				return err
			}
		}
		return nil
	}
	parts := s.split(b)
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for m, p := range parts {
		switch len(p.bufs) {
		case 0:
			continue
		case len(b.bufs):
			return transfer(s.members[m], p, write)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[m] = transfer(s.members[m], p, write)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ReadBlocks implements BatchDevice.
func (s *Striped) ReadBlocks(start uint64, bufs [][]byte) error {
	return s.batch(batch{start: start, bufs: bufs}, false)
}

// WriteBlocks implements BatchDevice.
func (s *Striped) WriteBlocks(start uint64, data [][]byte) error {
	return s.batch(batch{start: start, bufs: data}, true)
}

// ReadBlocksAt implements BatchDevice.
func (s *Striped) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	return s.batch(batch{idx: idx, at: true, bufs: bufs}, false)
}

// WriteBlocksAt implements BatchDevice.
func (s *Striped) WriteBlocksAt(idx []uint64, data [][]byte) error {
	return s.batch(batch{idx: idx, at: true, bufs: data}, true)
}

// --- Traced -------------------------------------------------------------

// batch runs the inner device's fast path, then records what moved: a
// contiguous batch as one ranged event, a scattered one as one event
// per block in batch order — exactly the stream a looping caller would
// have produced, since scattered accesses have no compact range form.
// Events are recorded only when the inner batch succeeds as a whole: a
// batch failing at block k transferred a k-block prefix (on sequential
// devices) that the trace does not show. Analyzers only consume traces
// from healthy runs, where the recorded stream is exactly the
// per-block loop's.
func (t *Traced) batch(b batch, write bool) error {
	if err := transfer(t.Device, b, write); err != nil {
		return err
	}
	switch {
	case b.at:
		for _, i := range b.idx {
			t.record(opOf(write), i, 0)
		}
	case !b.empty():
		t.record(opOf(write), b.start, uint64(len(b.bufs)))
	}
	return nil
}

// ReadBlocks implements BatchDevice.
func (t *Traced) ReadBlocks(start uint64, bufs [][]byte) error {
	return t.batch(batch{start: start, bufs: bufs}, false)
}

// WriteBlocks implements BatchDevice.
func (t *Traced) WriteBlocks(start uint64, data [][]byte) error {
	return t.batch(batch{start: start, bufs: data}, true)
}

// ReadBlocksAt implements BatchDevice.
func (t *Traced) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	return t.batch(batch{idx: idx, at: true, bufs: bufs}, false)
}

// WriteBlocksAt implements BatchDevice.
func (t *Traced) WriteBlocksAt(idx []uint64, data [][]byte) error {
	return t.batch(batch{idx: idx, at: true, bufs: data}, true)
}

// --- Sim ----------------------------------------------------------------

// batch charges the disk model one sequential pass (one seek, n
// transfers) for a contiguous batch, and a scattered one block by
// block in batch order: the head really must visit every index.
func (s *Sim) batch(b batch, write bool) error {
	if err := transfer(s.Device, b, write); err != nil {
		return err
	}
	if !b.at {
		s.disk.AccessRange(b.start, len(b.bufs), write)
		return nil
	}
	for _, i := range b.idx {
		s.disk.Access(i, write)
	}
	return nil
}

// ReadBlocks implements BatchDevice.
func (s *Sim) ReadBlocks(start uint64, bufs [][]byte) error {
	return s.batch(batch{start: start, bufs: bufs}, false)
}

// WriteBlocks implements BatchDevice.
func (s *Sim) WriteBlocks(start uint64, data [][]byte) error {
	return s.batch(batch{start: start, bufs: data}, true)
}

// ReadBlocksAt implements BatchDevice.
func (s *Sim) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	return s.batch(batch{idx: idx, at: true, bufs: bufs}, false)
}

// WriteBlocksAt implements BatchDevice.
func (s *Sim) WriteBlocksAt(idx []uint64, data [][]byte) error {
	return s.batch(batch{idx: idx, at: true, bufs: data}, true)
}
