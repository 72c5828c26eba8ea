package blockdev

import (
	"errors"
	"fmt"
	"sync"

	"steghide/internal/mempool"
)

// Batch I/O plane. The constructions of the paper are throughput-bound
// on bulk block movement — §4's relocation and dummy traffic, §5's
// reshuffle (external merge sort) — so a batch is the one transfer
// every device offers: one lock acquisition on Mem, one positional
// syscall per run on File, one round trip on wire.RemoteDevice, one
// sequential-pass charge on Sim. Inside the package a batch is one
// descriptor, and every device moves it in one method.
//
// Error semantics: a batch is validated whole before any I/O. On
// sequential devices (Mem, File, Sub, FaultDevice) a device error
// mid-batch leaves a well-defined prefix — every block before the
// failing one has been transferred, none at or after it. Striped
// splits a batch into one share per member, and each member's share is
// prefix-consistent; over members with real I/O latency the shares run
// concurrently, so a failed batch there may have transferred an
// arbitrary subset of the other shares. A Striped whose members are
// all memory-speed moves the shares inline, in member order.

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

// transfer hands b to the one of d's four batch methods that moves it.
func transfer(d Device, b batch, write bool) error {
	switch {
	case b.at && write:
		return d.WriteBlocksAt(b.idx, b.bufs)
	case b.at:
		return d.ReadBlocksAt(b.idx, b.bufs)
	case write:
		return d.WriteBlocks(b.start, b.bufs)
	default:
		return d.ReadBlocks(b.start, b.bufs)
	}
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

// ReadBlocks implements Device.
func (m *Mem) ReadBlocks(start uint64, bufs [][]byte) error {
	return m.batch(batch{start: start, bufs: bufs}, false)
}

// WriteBlocks implements Device.
func (m *Mem) WriteBlocks(start uint64, data [][]byte) error {
	return m.batch(batch{start: start, bufs: data}, true)
}

// ReadBlocksAt implements Device.
func (m *Mem) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	return m.batch(batch{idx: idx, at: true, bufs: bufs}, false)
}

// WriteBlocksAt implements Device.
func (m *Mem) WriteBlocksAt(idx []uint64, data [][]byte) error {
	return m.batch(batch{idx: idx, at: true, bufs: data}, true)
}

// --- File ---------------------------------------------------------------

// batch coalesces b into runs of consecutive blocks and moves each run
// with one positional syscall; a contiguous batch is one run. The
// run's slab is leased from mempool and fully overwritten before use:
// by the copies in on a write, by the read on a read.
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
		slab := mempool.Get(len(run) * bs)
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
		mempool.Recycle(slab)
		if err != nil {
			return fmt.Errorf("blockdev: %s blocks [%d,%d): %w", opOf(write), first, first+uint64(len(run)), err)
		}
		lo = hi
	}
	return nil
}

// ReadBlocks implements Device.
func (d *File) ReadBlocks(start uint64, bufs [][]byte) error {
	return d.batch(batch{start: start, bufs: bufs}, false)
}

// WriteBlocks implements Device.
func (d *File) WriteBlocks(start uint64, data [][]byte) error {
	return d.batch(batch{start: start, bufs: data}, true)
}

// ReadBlocksAt implements Device.
func (d *File) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	return d.batch(batch{idx: idx, at: true, bufs: bufs}, false)
}

// WriteBlocksAt implements Device.
func (d *File) WriteBlocksAt(idx []uint64, data [][]byte) error {
	return d.batch(batch{idx: idx, at: true, bufs: data}, true)
}

// --- SubDevice ----------------------------------------------------------

// batch translates b into the parent's address space; the parent's
// batch method does the work.
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

// ReadBlocks implements Device.
func (s *SubDevice) ReadBlocks(start uint64, bufs [][]byte) error {
	return s.batch(batch{start: start, bufs: bufs}, false)
}

// WriteBlocks implements Device.
func (s *SubDevice) WriteBlocks(start uint64, data [][]byte) error {
	return s.batch(batch{start: start, bufs: data}, true)
}

// ReadBlocksAt implements Device.
func (s *SubDevice) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	return s.batch(batch{idx: idx, at: true, bufs: bufs}, false)
}

// WriteBlocksAt implements Device.
func (s *SubDevice) WriteBlocksAt(idx []uint64, data [][]byte) error {
	return s.batch(batch{idx: idx, at: true, bufs: data}, true)
}

// --- Striped ------------------------------------------------------------

// split partitions b by owning member: parts[m] is member m's share at
// its local indices, in batch order. Block start+j of a contiguous run
// lives on member (start+j) mod k, so each member's share of a run is
// itself a run and keeps the member's contiguous path. The shares are
// carved out of one buffer vector (and one index vector), sized by a
// counting pass, so a split costs the same few allocations at any
// batch size.
func (s *Striped) split(b batch) []batch {
	parts := make([]batch, len(s.members))
	for k := range b.bufs {
		m, _ := s.Locate(b.block(k))
		parts[m].start++ // the share's size until it is carved below
	}
	bufs := make([][]byte, len(b.bufs))
	var idx []uint64
	if b.at {
		idx = make([]uint64, len(b.idx))
	}
	off := 0
	for m := range parts {
		n := int(parts[m].start)
		parts[m] = batch{at: b.at, bufs: bufs[off : off : off+n]}
		if b.at {
			parts[m].idx = idx[off : off : off+n]
		}
		off += n
	}
	for k, buf := range b.bufs {
		m, local := s.Locate(b.block(k))
		p := &parts[m]
		if len(p.bufs) == 0 {
			p.start = local
		}
		if b.at {
			p.idx = append(p.idx, local)
		}
		p.bufs = append(p.bufs, buf)
	}
	return parts
}

// batch moves b across the members, one call per member's share.
// All-memory stripes move the shares inline, in member order, since
// goroutine fan-out costs more than memcpy-speed I/O.
func (s *Striped) batch(b batch, write bool) error {
	if err := b.check(s); err != nil {
		return err
	}
	parts := s.split(b)
	if !s.allFast {
		return s.fanOut(parts, len(b.bufs), write)
	}
	for m, p := range parts {
		if len(p.bufs) > 0 {
			if err := transfer(s.members[m], p, write); err != nil {
				return err
			}
		}
	}
	return nil
}

// fanOut moves the members' shares of an n-block batch concurrently,
// inline when one member holds the whole batch.
func (s *Striped) fanOut(parts []batch, n int, write bool) error {
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for m, p := range parts {
		switch len(p.bufs) {
		case 0:
			continue
		case n:
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

// ReadBlocks implements Device.
func (s *Striped) ReadBlocks(start uint64, bufs [][]byte) error {
	return s.batch(batch{start: start, bufs: bufs}, false)
}

// WriteBlocks implements Device.
func (s *Striped) WriteBlocks(start uint64, data [][]byte) error {
	return s.batch(batch{start: start, bufs: data}, true)
}

// ReadBlocksAt implements Device.
func (s *Striped) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	return s.batch(batch{idx: idx, at: true, bufs: bufs}, false)
}

// WriteBlocksAt implements Device.
func (s *Striped) WriteBlocksAt(idx []uint64, data [][]byte) error {
	return s.batch(batch{idx: idx, at: true, bufs: data}, true)
}

// --- Traced -------------------------------------------------------------

// batch runs the inner device's batch, then records what moved: a
// contiguous batch as one ranged event, a scattered one as one event
// per block in batch order, since scattered accesses have no compact
// range form — so a single block (ReadBlock, WriteBlock) is one
// {Block: i, Count: 0} event. Events are recorded only when the inner
// batch succeeds as a whole: a batch failing at block k transferred a
// k-block prefix (on sequential devices) that the trace does not show.
// Analyzers only consume traces from healthy runs.
func (t *Traced) batch(b batch, write bool) error {
	if err := transfer(t.Device, b, write); err != nil {
		return err
	}
	switch {
	case b.at:
		for _, i := range b.idx {
			t.record(opOf(write), i, 0)
		}
	case len(b.bufs) > 0:
		t.record(opOf(write), b.start, uint64(len(b.bufs)))
	}
	return nil
}

// ReadBlocks implements Device.
func (t *Traced) ReadBlocks(start uint64, bufs [][]byte) error {
	return t.batch(batch{start: start, bufs: bufs}, false)
}

// WriteBlocks implements Device.
func (t *Traced) WriteBlocks(start uint64, data [][]byte) error {
	return t.batch(batch{start: start, bufs: data}, true)
}

// ReadBlocksAt implements Device.
func (t *Traced) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	return t.batch(batch{idx: idx, at: true, bufs: bufs}, false)
}

// WriteBlocksAt implements Device.
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

// ReadBlocks implements Device.
func (s *Sim) ReadBlocks(start uint64, bufs [][]byte) error {
	return s.batch(batch{start: start, bufs: bufs}, false)
}

// WriteBlocks implements Device.
func (s *Sim) WriteBlocks(start uint64, data [][]byte) error {
	return s.batch(batch{start: start, bufs: data}, true)
}

// ReadBlocksAt implements Device.
func (s *Sim) ReadBlocksAt(idx []uint64, bufs [][]byte) error {
	return s.batch(batch{idx: idx, at: true, bufs: bufs}, false)
}

// WriteBlocksAt implements Device.
func (s *Sim) WriteBlocksAt(idx []uint64, data [][]byte) error {
	return s.batch(batch{idx: idx, at: true, bufs: data}, true)
}
