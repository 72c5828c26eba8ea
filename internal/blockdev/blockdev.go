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
// There is one contract: every Device moves blocks in batches, through
// its four batch methods (batch.go), and a single block is the
// scattered batch of one (ReadBlock, WriteBlock).
package blockdev

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"sync"

	"steghide/internal/diskmodel"
)

// Device is a fixed-geometry block store that moves blocks in
// batches. ReadBlocks/WriteBlocks move the contiguous block range
// [start, start+len(bufs)); the *At variants move an arbitrary index
// set (idx[k] pairs with bufs[k]). A single block is the scattered
// batch of one (ReadBlock, WriteBlock). All methods must be safe for
// concurrent use by multiple goroutines.
type Device interface {
	// BlockSize returns the size of every block in bytes.
	BlockSize() int
	// NumBlocks returns the number of addressable blocks.
	NumBlocks() uint64
	ReadBlocks(start uint64, bufs [][]byte) error
	WriteBlocks(start uint64, data [][]byte) error
	ReadBlocksAt(idx []uint64, bufs [][]byte) error
	WriteBlocksAt(idx []uint64, data [][]byte) error
	// Close releases underlying resources.
	Close() error
}

// One is the scattered batch of one: the index and buffer vectors a
// single-block transfer hands the device. A caller that moves single
// blocks on a hot path keeps a One in the scratch it already holds, so
// the vectors are not built on the heap per call. A One serves one
// transfer at a time and keeps nothing between them.
type One struct {
	idx  [1]uint64
	bufs [1][]byte
}

// Read fills buf (len == BlockSize) with block i of d. A nil One
// builds its vectors for the call.
func (o *One) Read(d Device, i uint64, buf []byte) error {
	if o == nil {
		o = new(One)
	}
	o.idx[0], o.bufs[0] = i, buf
	err := d.ReadBlocksAt(o.idx[:], o.bufs[:])
	*o = One{}
	return err
}

// Write stores data (len == BlockSize) as block i of d. A nil One
// builds its vectors for the call.
func (o *One) Write(d Device, i uint64, data []byte) error {
	if o == nil {
		o = new(One)
	}
	o.idx[0], o.bufs[0] = i, data
	err := d.WriteBlocksAt(o.idx[:], o.bufs[:])
	*o = One{}
	return err
}

// ReadBlock fills buf (len == BlockSize) with block i of d, building
// the batch of one for the call.
func ReadBlock(d Device, i uint64, buf []byte) error {
	return (*One)(nil).Read(d, i, buf)
}

// WriteBlock stores data (len == BlockSize) as block i of d, building
// the batch of one for the call.
func WriteBlock(d Device, i uint64, data []byte) error {
	return (*One)(nil).Write(d, i, data)
}

// ErrOutOfRange reports a block index beyond the device.
var ErrOutOfRange = errors.New("blockdev: block index out of range")

// ErrBufSize reports a buffer whose length is not exactly one block.
var ErrBufSize = errors.New("blockdev: buffer length != block size")

// Mem is an in-memory device backed by a single slab. The slab is
// guarded in memStripes contiguous block ranges, each by its own lock,
// so sessions copying disjoint blocks neither serialize nor bounce one
// lock word between cores. A call takes every stripe its batch touches
// once, in ascending order (as Snapshot does, so no two callers wait on
// each other in a cycle), copies, and lets them go: each block is
// atomic, like the disk it stands for, and on Mem so is each call.
type Mem struct {
	stripes   [memStripes]memStripe
	shift     uint // block i lies in stripe i >> shift
	slab      []byte
	blockSize int
	numBlocks uint64
}

// memStripes is at most 64, so a batch's stripes fit one uint64 mask.
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

// lock takes the stripes of mask (bit s: stripe s) in ascending order.
func (m *Mem) lock(mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		m.stripes[bits.TrailingZeros64(mask)].Lock()
	}
}

// unlock lets the stripes of mask go.
func (m *Mem) unlock(mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		m.stripes[bits.TrailingZeros64(mask)].Unlock()
	}
}

// BlockSize implements Device.
func (m *Mem) BlockSize() int { return m.blockSize }

// NumBlocks implements Device.
func (m *Mem) NumBlocks() uint64 { return m.numBlocks }

// ReadBlock fills buf with block i. Mem keeps these two single-block
// methods so it satisfies the facade's BatchDevice (see steghide.go).
func (m *Mem) ReadBlock(i uint64, buf []byte) error {
	return m.batch(batch{idx: []uint64{i}, at: true, bufs: [][]byte{buf}}, false)
}

// WriteBlock stores data as block i.
func (m *Mem) WriteBlock(i uint64, data []byte) error {
	return m.batch(batch{idx: []uint64{i}, at: true, bufs: [][]byte{data}}, true)
}

// Close implements Device. It is a no-op for Mem.
func (m *Mem) Close() error { return nil }

// Snapshot copies the entire volume; this is the update-analysis
// attacker's primitive (§3.1: "compare consecutive snapshots"). It
// takes every stripe, in order, so the copy is one instant of the
// volume.
func (m *Mem) Snapshot() []byte {
	m.lock(^uint64(0))
	out := make([]byte, len(m.slab))
	copy(out, m.slab)
	m.unlock(^uint64(0))
	return out
}

// File is a device backed by an operating-system file, using
// positional reads and writes so concurrent access needs no seeking
// state.
type File struct {
	f         *os.File
	blockSize int
	numBlocks uint64
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

// Close implements Device; it does not close the parent.
func (s *SubDevice) Close() error { return nil }
