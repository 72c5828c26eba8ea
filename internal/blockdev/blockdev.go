// Package blockdev abstracts the raw storage of the system model
// (§3.2): a shared volume of fixed-size blocks that the trusted agent
// reads and writes, and that attackers can observe.
//
// Implementations:
//
//   - Mem: an in-memory volume, the workhorse for tests and simulation.
//   - File: a file-backed volume using positional I/O.
//   - SubDevice: a window of another device, how one volume is
//     partitioned.
//   - Striped: several devices as one volume, blocks round-robin.
//   - Sim: wraps any device and charges simulated 2004-era disk time
//     on a virtual clock (see internal/diskmodel).
//   - Traced: wraps any device and publishes every access to a Tracer —
//     this is the attacker's observation point for traffic analysis, and
//     the probe used by the experiment harness for I/O accounting.
//   - FaultDevice: wraps any device and fails or power-cuts it on
//     demand, for failure injection.
//
// Multi-block transfers go through the batch plane (batch.go).
package blockdev

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"steghide/internal/diskmodel"
)

// Device is a fixed-geometry block store. ReadBlock and WriteBlock
// must be safe for concurrent use by multiple goroutines.
type Device interface {
	// BlockSize returns the size of every block in bytes.
	BlockSize() int
	// NumBlocks returns the number of addressable blocks.
	NumBlocks() uint64
	// ReadBlock fills buf (len == BlockSize) with block i.
	ReadBlock(i uint64, buf []byte) error
	// WriteBlock stores data (len == BlockSize) as block i.
	WriteBlock(i uint64, data []byte) error
	// Close releases underlying resources.
	Close() error
}

// ErrOutOfRange reports a block index beyond the device.
var ErrOutOfRange = errors.New("blockdev: block index out of range")

// ErrBufSize reports a buffer whose length is not exactly one block.
var ErrBufSize = errors.New("blockdev: buffer length != block size")

func checkArgs(d Device, i uint64, buf []byte) error {
	if i >= d.NumBlocks() {
		return fmt.Errorf("%w: %d >= %d", ErrOutOfRange, i, d.NumBlocks())
	}
	if len(buf) != d.BlockSize() {
		return fmt.Errorf("%w: %d != %d", ErrBufSize, len(buf), d.BlockSize())
	}
	return nil
}

// Mem is an in-memory device backed by a single slab. The slab is
// guarded in memStripes contiguous block ranges, each by its own lock,
// so sessions copying disjoint blocks neither serialize nor bounce one
// lock word between cores. A call holds one stripe at a time; a batch
// moves its lock only when the next block lies in another stripe, so it
// is atomic per block, like the disk it stands for, not per call.
type Mem struct {
	stripes   [memStripes]memStripe
	shift     uint // block i lies in stripe i >> shift
	slab      []byte
	blockSize int
	numBlocks uint64
}

const memStripes = 64

// memStripe is one range lock, alone on its cache line.
type memStripe struct {
	sync.Mutex
	_ [56]byte
}

// NewMem allocates an in-memory device of n blocks, zero-filled.
func NewMem(blockSize int, n uint64) *Mem {
	if blockSize <= 0 || n == 0 {
		panic(fmt.Sprintf("blockdev: NewMem(%d, %d)", blockSize, n))
	}
	// The smallest power-of-two range that covers n blocks in at most
	// memStripes stripes.
	shift := uint(0)
	for (n-1)>>shift >= memStripes {
		shift++
	}
	return &Mem{
		shift:     shift,
		slab:      make([]byte, uint64(blockSize)*n),
		blockSize: blockSize,
		numBlocks: n,
	}
}

// hold moves the caller's stripe lock to the stripe of block i: a no-op
// while a batch stays inside one stripe. held is nil before the first
// block; the caller unlocks what the last call returned.
func (m *Mem) hold(held *memStripe, i uint64) *memStripe {
	s := &m.stripes[i>>m.shift]
	if s != held {
		if held != nil {
			held.Unlock()
		}
		s.Lock()
	}
	return s
}

// BlockSize implements Device.
func (m *Mem) BlockSize() int { return m.blockSize }

// NumBlocks implements Device.
func (m *Mem) NumBlocks() uint64 { return m.numBlocks }

// ReadBlock implements Device.
func (m *Mem) ReadBlock(i uint64, buf []byte) error {
	if err := checkArgs(m, i, buf); err != nil {
		return err
	}
	off := i * uint64(m.blockSize)
	s := m.hold(nil, i)
	copy(buf, m.slab[off:off+uint64(m.blockSize)])
	s.Unlock()
	return nil
}

// WriteBlock implements Device.
func (m *Mem) WriteBlock(i uint64, data []byte) error {
	if err := checkArgs(m, i, data); err != nil {
		return err
	}
	off := i * uint64(m.blockSize)
	s := m.hold(nil, i)
	copy(m.slab[off:off+uint64(m.blockSize)], data)
	s.Unlock()
	return nil
}

// Close implements Device. It is a no-op for Mem.
func (m *Mem) Close() error { return nil }

// Snapshot copies the entire volume; this is the update-analysis
// attacker's primitive (§3.1: "compare consecutive snapshots"). It
// takes every stripe, in order, so the copy is one instant of the
// volume.
func (m *Mem) Snapshot() []byte {
	for i := range m.stripes {
		m.stripes[i].Lock()
	}
	out := make([]byte, len(m.slab))
	copy(out, m.slab)
	for i := range m.stripes {
		m.stripes[i].Unlock()
	}
	return out
}

// File is a device backed by an operating-system file, using
// positional reads and writes so concurrent access needs no seeking
// state.
type File struct {
	f         *os.File
	blockSize int
	numBlocks uint64
	scratch   sync.Pool // *[]byte slabs for batched transfers
}

// CreateFile creates (or truncates) a file-backed device of n blocks.
func CreateFile(path string, blockSize int, n uint64) (*File, error) {
	if blockSize <= 0 || n == 0 {
		return nil, fmt.Errorf("blockdev: CreateFile(%d, %d)", blockSize, n)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("blockdev: %w", err)
	}
	if err := f.Truncate(int64(blockSize) * int64(n)); err != nil {
		f.Close()
		return nil, fmt.Errorf("blockdev: truncate: %w", err)
	}
	return &File{f: f, blockSize: blockSize, numBlocks: n}, nil
}

// OpenFile opens an existing file-backed device, inferring the block
// count from the file size.
func OpenFile(path string, blockSize int) (*File, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("blockdev: OpenFile block size %d", blockSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("blockdev: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("blockdev: stat: %w", err)
	}
	if st.Size()%int64(blockSize) != 0 || st.Size() == 0 {
		f.Close()
		return nil, fmt.Errorf("blockdev: file size %d not a positive multiple of block size %d", st.Size(), blockSize)
	}
	return &File{f: f, blockSize: blockSize, numBlocks: uint64(st.Size() / int64(blockSize))}, nil
}

// BlockSize implements Device.
func (d *File) BlockSize() int { return d.blockSize }

// NumBlocks implements Device.
func (d *File) NumBlocks() uint64 { return d.numBlocks }

// ReadBlock implements Device.
func (d *File) ReadBlock(i uint64, buf []byte) error {
	if err := checkArgs(d, i, buf); err != nil {
		return err
	}
	if _, err := d.f.ReadAt(buf, int64(i)*int64(d.blockSize)); err != nil {
		return fmt.Errorf("blockdev: read block %d: %w", i, err)
	}
	return nil
}

// WriteBlock implements Device.
func (d *File) WriteBlock(i uint64, data []byte) error {
	if err := checkArgs(d, i, data); err != nil {
		return err
	}
	if _, err := d.f.WriteAt(data, int64(i)*int64(d.blockSize)); err != nil {
		return fmt.Errorf("blockdev: write block %d: %w", i, err)
	}
	return nil
}

// Sync flushes the file to stable storage.
func (d *File) Sync() error { return d.f.Sync() }

// Close implements Device.
func (d *File) Close() error { return d.f.Close() }

// Sim wraps a device and charges simulated disk time for every access.
type Sim struct {
	Device
	disk *diskmodel.Disk
}

// NewSim wraps base so each access advances disk's virtual clock.
func NewSim(base Device, disk *diskmodel.Disk) *Sim {
	if disk.Params().NumBlocks != base.NumBlocks() {
		panic("blockdev: disk model geometry does not match device")
	}
	return &Sim{Device: base, disk: disk}
}

// Disk exposes the underlying disk model (clock, stats).
func (s *Sim) Disk() *diskmodel.Disk { return s.disk }

// ReadBlock implements Device, charging simulated time.
func (s *Sim) ReadBlock(i uint64, buf []byte) error {
	if err := s.Device.ReadBlock(i, buf); err != nil {
		return err
	}
	s.disk.Access(i, false)
	return nil
}

// WriteBlock implements Device, charging simulated time.
func (s *Sim) WriteBlock(i uint64, data []byte) error {
	if err := s.Device.WriteBlock(i, data); err != nil {
		return err
	}
	s.disk.Access(i, true)
	return nil
}

// SubDevice exposes a contiguous window [start, start+count) of a
// parent device as a device of its own. It is how one raw volume is
// split into a StegFS partition and an oblivious-storage partition
// (§5: "we carve out a partition on the raw storage").
type SubDevice struct {
	parent Device
	start  uint64
	count  uint64
}

// NewSub returns a view of count blocks of parent starting at start.
func NewSub(parent Device, start, count uint64) (*SubDevice, error) {
	if count == 0 || start+count > parent.NumBlocks() || start+count < start {
		return nil, fmt.Errorf("blockdev: sub-device [%d,%d) exceeds parent of %d blocks",
			start, start+count, parent.NumBlocks())
	}
	return &SubDevice{parent: parent, start: start, count: count}, nil
}

// BlockSize implements Device.
func (s *SubDevice) BlockSize() int { return s.parent.BlockSize() }

// NumBlocks implements Device.
func (s *SubDevice) NumBlocks() uint64 { return s.count }

// ReadBlock implements Device.
func (s *SubDevice) ReadBlock(i uint64, buf []byte) error {
	if i >= s.count {
		return fmt.Errorf("%w: %d >= %d", ErrOutOfRange, i, s.count)
	}
	return s.parent.ReadBlock(s.start+i, buf)
}

// WriteBlock implements Device.
func (s *SubDevice) WriteBlock(i uint64, data []byte) error {
	if i >= s.count {
		return fmt.Errorf("%w: %d >= %d", ErrOutOfRange, i, s.count)
	}
	return s.parent.WriteBlock(s.start+i, data)
}

// Close implements Device; it does not close the parent.
func (s *SubDevice) Close() error { return nil }
