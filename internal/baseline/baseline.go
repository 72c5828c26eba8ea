// Package baseline implements the two conventional file systems the
// paper compares against (Table 3):
//
//   - CleanDisk — a fresh Linux file system whose files reside on
//     contiguous blocks, so single-user streaming enjoys sequential
//     I/O;
//   - FragDisk — a well-used, fragmented file system, simulated (as
//     in the paper) by breaking each file into fragments of 8 blocks
//     placed at scattered positions.
//
// Neither hides anything; they exist to show what the steganographic
// constructions pay (Figs. 10 and 11) and where the gap closes (high
// concurrency).
package baseline

import (
	"errors"
	"fmt"

	"steghide/internal/blockdev"
	"steghide/internal/prng"
)

// FragmentBlocks is the fragment size of FragDisk, from §6.2: "we
// simulate it by breaking each file into fragments of 8 blocks".
const FragmentBlocks = 8

// Sentinel errors.
var (
	ErrNoSpace  = errors.New("baseline: out of space")
	ErrNotFound = errors.New("baseline: no such file")
	ErrExists   = errors.New("baseline: file exists")
)

// Store is the minimal file-store surface the experiments exercise on
// every system: whole-file write and read, and in-place block-range
// updates.
type Store interface {
	// Write creates a file with the given content.
	Write(name string, data []byte) error
	// Read returns the file's full content.
	Read(name string) ([]byte, error)
	// UpdateBlocks overwrites data starting at block blockIdx; len(data)
	// must be a multiple of BlockPayload.
	UpdateBlocks(name string, blockIdx uint64, data []byte) error
	// BlockPayload returns the usable bytes per block.
	BlockPayload() int
	// FileBlocks returns the physical block sequence of a file in
	// logical order, for building replayable I/O streams.
	FileBlocks(name string) ([]uint64, error)
}

// CleanDisk allocates every file as one contiguous extent.
type CleanDisk struct {
	dev   blockdev.Device
	next  uint64
	files map[string]extent
}

type extent struct {
	start  uint64
	blocks uint64
	size   uint64
}

// NewCleanDisk builds a fresh contiguous-allocation store on dev.
func NewCleanDisk(dev blockdev.Device) *CleanDisk {
	return &CleanDisk{dev: dev, files: map[string]extent{}}
}

// BlockPayload implements Store.
func (c *CleanDisk) BlockPayload() int { return c.dev.BlockSize() }

func (c *CleanDisk) blocksFor(n int) uint64 {
	bs := uint64(c.dev.BlockSize())
	return (uint64(n) + bs - 1) / bs
}

// Write implements Store.
func (c *CleanDisk) Write(name string, data []byte) error {
	if _, dup := c.files[name]; dup {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	blocks := c.blocksFor(len(data))
	if c.next+blocks > c.dev.NumBlocks() {
		return fmt.Errorf("%w: need %d blocks", ErrNoSpace, blocks)
	}
	ext := extent{start: c.next, blocks: blocks, size: uint64(len(data))}
	if err := writeRange(c.dev, ext.start, data); err != nil {
		return err
	}
	c.next += blocks
	c.files[name] = ext
	return nil
}

// Read implements Store.
func (c *CleanDisk) Read(name string) ([]byte, error) {
	ext, ok := c.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	out := make([]byte, ext.size)
	buf := make([]byte, c.dev.BlockSize())
	for i := uint64(0); i < ext.blocks; i++ {
		if err := blockdev.ReadBlock(c.dev, ext.start+i, buf); err != nil {
			return nil, err
		}
		copy(out[i*uint64(c.dev.BlockSize()):], buf)
	}
	return out, nil
}

// UpdateBlocks implements Store: read-modify-write in place.
func (c *CleanDisk) UpdateBlocks(name string, blockIdx uint64, data []byte) error {
	ext, ok := c.files[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	n := c.blocksFor(len(data))
	if len(data)%c.dev.BlockSize() != 0 {
		return fmt.Errorf("baseline: update not block-aligned (%d bytes)", len(data))
	}
	if blockIdx+n > ext.blocks {
		return fmt.Errorf("baseline: update range [%d,%d) beyond %d blocks", blockIdx, blockIdx+n, ext.blocks)
	}
	buf := make([]byte, c.dev.BlockSize())
	for i := uint64(0); i < n; i++ {
		loc := ext.start + blockIdx + i
		if err := blockdev.ReadBlock(c.dev, loc, buf); err != nil { // read-modify-write
			return err
		}
		copy(buf, data[i*uint64(c.dev.BlockSize()):])
		if err := blockdev.WriteBlock(c.dev, loc, buf); err != nil {
			return err
		}
	}
	return nil
}

// FileBlocks implements Store.
func (c *CleanDisk) FileBlocks(name string) ([]uint64, error) {
	ext, ok := c.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	out := make([]uint64, ext.blocks)
	for i := range out {
		out[i] = ext.start + uint64(i)
	}
	return out, nil
}

// FragDisk allocates files in fixed-size fragments scattered across
// the volume.
type FragDisk struct {
	dev       blockdev.Device
	rng       *prng.PRNG
	freeFrags []uint64 // fragment start blocks, pre-shuffled
	files     map[string]*fragFile
}

type fragFile struct {
	frags []uint64 // fragment start blocks
	size  uint64
}

// NewFragDisk builds a fragmented store on dev. Fragment placement is
// a random permutation of the volume's fragments, modelling years of
// allocation churn.
func NewFragDisk(dev blockdev.Device, rng *prng.PRNG) *FragDisk {
	nFrags := dev.NumBlocks() / FragmentBlocks
	frags := make([]uint64, nFrags)
	for i := range frags {
		frags[i] = uint64(i) * FragmentBlocks
	}
	rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
	return &FragDisk{dev: dev, rng: rng, freeFrags: frags, files: map[string]*fragFile{}}
}

// BlockPayload implements Store.
func (f *FragDisk) BlockPayload() int { return f.dev.BlockSize() }

// Write implements Store.
func (f *FragDisk) Write(name string, data []byte) error {
	if _, dup := f.files[name]; dup {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	bs := uint64(f.dev.BlockSize())
	blocks := (uint64(len(data)) + bs - 1) / bs
	nFrags := (blocks + FragmentBlocks - 1) / FragmentBlocks
	if uint64(len(f.freeFrags)) < nFrags {
		return fmt.Errorf("%w: need %d fragments", ErrNoSpace, nFrags)
	}
	ff := &fragFile{size: uint64(len(data))}
	ff.frags = append(ff.frags, f.freeFrags[:nFrags]...)
	f.freeFrags = f.freeFrags[nFrags:]
	buf := make([]byte, bs)
	for i := uint64(0); i < blocks; i++ {
		for j := range buf {
			buf[j] = 0
		}
		copy(buf, data[i*bs:])
		if err := blockdev.WriteBlock(f.dev, ff.block(i), buf); err != nil {
			return err
		}
	}
	f.files[name] = ff
	return nil
}

func (ff *fragFile) block(i uint64) uint64 {
	return ff.frags[i/FragmentBlocks] + i%FragmentBlocks
}

func (ff *fragFile) blocks(bs uint64) uint64 {
	return (ff.size + bs - 1) / bs
}

// Read implements Store.
func (f *FragDisk) Read(name string) ([]byte, error) {
	ff, ok := f.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	bs := uint64(f.dev.BlockSize())
	out := make([]byte, ff.size)
	buf := make([]byte, bs)
	for i := uint64(0); i < ff.blocks(bs); i++ {
		if err := blockdev.ReadBlock(f.dev, ff.block(i), buf); err != nil {
			return nil, err
		}
		copy(out[i*bs:], buf)
	}
	return out, nil
}

// UpdateBlocks implements Store.
func (f *FragDisk) UpdateBlocks(name string, blockIdx uint64, data []byte) error {
	ff, ok := f.files[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	bs := uint64(f.dev.BlockSize())
	if uint64(len(data))%bs != 0 {
		return fmt.Errorf("baseline: update not block-aligned (%d bytes)", len(data))
	}
	n := uint64(len(data)) / bs
	if blockIdx+n > ff.blocks(bs) {
		return fmt.Errorf("baseline: update range beyond file")
	}
	buf := make([]byte, bs)
	for i := uint64(0); i < n; i++ {
		loc := ff.block(blockIdx + i)
		if err := blockdev.ReadBlock(f.dev, loc, buf); err != nil {
			return err
		}
		copy(buf, data[i*bs:])
		if err := blockdev.WriteBlock(f.dev, loc, buf); err != nil {
			return err
		}
	}
	return nil
}

// FileBlocks implements Store.
func (f *FragDisk) FileBlocks(name string) ([]uint64, error) {
	ff, ok := f.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	bs := uint64(f.dev.BlockSize())
	out := make([]uint64, ff.blocks(bs))
	for i := range out {
		out[i] = ff.block(uint64(i))
	}
	return out, nil
}

func writeRange(dev blockdev.Device, start uint64, data []byte) error {
	bs := dev.BlockSize()
	buf := make([]byte, bs)
	blocks := (len(data) + bs - 1) / bs
	for i := 0; i < blocks; i++ {
		for j := range buf {
			buf[j] = 0
		}
		copy(buf, data[i*bs:])
		if err := blockdev.WriteBlock(dev, start+uint64(i), buf); err != nil {
			return err
		}
	}
	return nil
}
