// Package stegfs implements the steganographic file system of
// Pang/Tan/Zhou (ICDE 2003) that the paper builds on, extended with
// the hooks the access-hiding constructions of the 2004 paper need.
//
// On-disk model (§4.1.1 of the paper):
//
//   - The volume is partitioned into fixed-size blocks. Block 0 is a
//     plaintext superblock (geometry + key-derivation salt); attackers
//     are assumed to understand the scheme completely (§3.2.2), so the
//     superblock reveals nothing they do not already know.
//   - Every other block — data or dummy — is `IV ‖ CBC-AES(data
//     field)`. At format time each block is filled with random bytes,
//     so unused (dummy) blocks are indistinguishable from ciphertext.
//   - A hidden file is a tree of blocks rooted at a header block whose
//     location is derived from the file's access key (FAK) and path
//     name. Without the FAK neither the header nor the existence of
//     the file can be established.
//   - Dummy files (headers that describe runs of random blocks) give
//     the volatile agent something to update when no real work exists,
//     and give coerced users something safe to disclose.
//
// The package deliberately does not decide *where* updated blocks go:
// that is the UpdatePolicy, supplied by the update-hiding layer
// (internal/steghide) or by the in-place baseline.
package stegfs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"steghide/internal/blockdev"
	"steghide/internal/mempool"
	"steghide/internal/prng"
	"steghide/internal/sealer"
)

// Superblock constants.
const (
	superMagic   = "STEGVOL1"
	superBlock   = 0 // block index of the superblock
	saltSize     = 32
	currentVer   = 2 // v2 added the journal-region length
	defaultIters = 4096
)

// Sentinel errors returned by the package.
var (
	// ErrNotFound reports that no file with the given FAK/path exists —
	// deliberately indistinguishable from "wrong key" (plausible
	// deniability).
	ErrNotFound = errors.New("stegfs: no such file (or wrong access key)")
	// ErrVolumeFull reports that no free block could be acquired.
	ErrVolumeFull = errors.New("stegfs: volume full")
	// ErrCorrupt reports a structurally invalid volume or block.
	ErrCorrupt = errors.New("stegfs: corrupt volume")
	// ErrTooLarge reports a file size beyond the block map's reach.
	ErrTooLarge = errors.New("stegfs: file too large for block map")
)

// FormatOptions control volume creation.
type FormatOptions struct {
	// KDFIterations for passphrase stretching; defaults to 4096.
	KDFIterations int
	// FillSeed seeds the random fill of the volume. A zero value uses
	// an arbitrary fixed seed; callers wanting irreproducible volumes
	// should pass entropy.
	FillSeed []byte
	// JournalBlocks reserves a ring of blocks right after the
	// superblock for the sealed intent journal (internal/journal).
	// Zero — the default — reserves nothing; the steg space then
	// starts at block 1, exactly as before v2.
	JournalBlocks uint64
}

// Volume is an open steganographic volume. Its block-level primitives
// (ReadSealed, WriteSealed, Reseal) are safe for concurrent use; the
// File layer serializes itself per file.
//
// When a BlockLocker is installed (SetBlockLocker — the update
// scheduler does this), every sealed read and every write primitive
// additionally serializes per block through it, so file-layer I/O
// (growth, header and pointer saves, reads) cannot interleave with a
// concurrent read-modify-write on the same block.
type Volume struct {
	dev       blockdev.Device
	blockSize int
	payload   int
	nBlocks   uint64
	salt      [saltSize]byte
	kdfIters  int
	journal   uint64 // blocks reserved for the intent journal ring

	mu  sync.Mutex
	rng *prng.PRNG // IV / fill generator

	locker atomic.Value // BlockLocker
	intent atomic.Value // IntentLog
}

// BlockLocker serializes block I/O per block number. internal/sched
// implements it with a sharded lock map shared between the update
// scheduler and the volume, so all writers of a block agree on one
// lock regardless of which layer they sit in.
type BlockLocker interface {
	// LockBlock locks the given block for a read-modify-write cycle.
	LockBlock(loc uint64)
	// UnlockBlock releases a LockBlock acquisition.
	UnlockBlock(loc uint64)
	// LockBlocks locks every block in locs (deduplicated, deadlock-free
	// ordering) and returns the matching unlock.
	LockBlocks(locs []uint64) (unlock func())
}

// SetBlockLocker installs l as the volume's per-block serializer.
// Install before concurrent use; a nil-to-set transition is safe at
// any time, replacing a live locker concurrently with I/O is not.
func (v *Volume) SetBlockLocker(l BlockLocker) { v.locker.Store(l) }

// blockLocker returns the installed locker, or nil.
func (v *Volume) blockLocker() BlockLocker {
	if x := v.locker.Load(); x != nil {
		return x.(BlockLocker)
	}
	return nil
}

// IntentLog is the durability plane's view of the file layer: the
// journaled agents (internal/steghide over internal/journal) install
// one so that every block-map mutation leaves a sealed intent record
// before the blocks it concerns are referenced by a durable header.
// All methods must be safe for concurrent use. A volume with no
// intent log installed behaves exactly as before — the file layer
// only consults the hooks, it never requires them.
type IntentLog interface {
	// NoteOwner records that data block loc currently belongs to the
	// file whose header sits at headerLoc, so a subsequent relocation
	// intent for loc can name the header recovery must inspect.
	NoteOwner(loc, headerLoc uint64)
	// LogAlloc durably records that the file at headerLoc acquired
	// locs (growth, indirect blocks, creation), before any of them is
	// written or referenced.
	LogAlloc(headerLoc uint64, locs []uint64) error
	// LogFree durably records that the file at headerLoc is giving up
	// locs (shrink, delete), before they are released.
	LogFree(headerLoc uint64, locs []uint64) error
	// LogSave marks the file's header save as durable: every earlier
	// intent of this file is now decided by the on-disk header, and
	// blocks the save vacated may rejoin the dummy pool.
	LogSave(headerLoc uint64) error
}

// SetIntentLog installs il as the volume's durability hooks; nil-to-set
// before concurrent use, like SetBlockLocker.
func (v *Volume) SetIntentLog(il IntentLog) { v.intent.Store(il) }

// IntentHooks returns the installed intent log, or nil.
func (v *Volume) IntentHooks() IntentLog {
	if x := v.intent.Load(); x != nil {
		return x.(IntentLog)
	}
	return nil
}

// MinBlockSize is the smallest supported block size: the header's
// fixed fields plus at least one direct pointer must fit the payload.
const MinBlockSize = 128

// Format initializes a steganographic volume on dev: it writes the
// superblock and fills every other block with random bytes, the
// "abandoned blocks" of the construction. Existing content is
// destroyed.
func Format(dev blockdev.Device, opts FormatOptions) (*Volume, error) {
	bs := dev.BlockSize()
	if bs < MinBlockSize {
		return nil, fmt.Errorf("stegfs: block size %d < minimum %d", bs, MinBlockSize)
	}
	if (bs-sealer.IVSize)%16 != 0 {
		return nil, fmt.Errorf("stegfs: block size %d leaves unaligned data field", bs)
	}
	if dev.NumBlocks() < 8 {
		return nil, fmt.Errorf("stegfs: volume of %d blocks too small", dev.NumBlocks())
	}
	if opts.JournalBlocks > 0 && dev.NumBlocks() < opts.JournalBlocks+9 {
		return nil, fmt.Errorf("stegfs: %d-block journal leaves no steg space on a %d-block volume",
			opts.JournalBlocks, dev.NumBlocks())
	}
	iters := opts.KDFIterations
	if iters <= 0 {
		iters = defaultIters
	}
	seed := opts.FillSeed
	if len(seed) == 0 {
		seed = []byte("stegfs-default-fill-seed")
	}
	rng := prng.New(seed)

	v := &Volume{
		dev:       dev,
		blockSize: bs,
		payload:   bs - sealer.IVSize,
		nBlocks:   dev.NumBlocks(),
		kdfIters:  iters,
		journal:   opts.JournalBlocks,
		rng:       rng.Child("volume-iv"),
	}
	rng.Read(v.salt[:])

	// Random-fill the steg space. Filler from the block-cipher
	// keystream is indistinguishable from CBC ciphertext under the same
	// assumption that protects the sealed blocks, so after this pass
	// every block plausibly holds hidden data. The fill goes out in
	// batched sequential passes of 64 KiB (enough to amortize the
	// device call, small enough to stay in cache); the filler is a byte
	// stream, so the volume's contents do not depend on the batch size.
	fill := rng.Child("fill")
	fillBatch := max((64<<10)/bs, 1)
	bufs := blockdev.AllocBlocks(fillBatch, bs)
	for i := uint64(1); i < v.nBlocks; {
		n := min(uint64(fillBatch), v.nBlocks-i)
		fill.Fill(bufs[0][: n*uint64(bs) : n*uint64(bs)])
		if err := blockdev.WriteBlocks(dev, i, bufs[:n]); err != nil {
			return nil, fmt.Errorf("stegfs: format fill: %w", err)
		}
		i += n
	}
	if err := v.writeSuper(); err != nil {
		return nil, err
	}
	return v, nil
}

// Open reads the superblock of an existing volume on dev.
func Open(dev blockdev.Device) (*Volume, error) {
	bs := dev.BlockSize()
	buf := make([]byte, bs)
	if err := dev.ReadBlock(superBlock, buf); err != nil {
		return nil, fmt.Errorf("stegfs: read superblock: %w", err)
	}
	if string(buf[:8]) != superMagic {
		return nil, fmt.Errorf("%w: bad superblock magic", ErrCorrupt)
	}
	ver := binary.BigEndian.Uint32(buf[8:])
	if ver != 1 && ver != currentVer {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	gotBS := int(binary.BigEndian.Uint32(buf[12:]))
	n := binary.BigEndian.Uint64(buf[16:])
	iters := int(binary.BigEndian.Uint32(buf[24:]))
	if gotBS != bs {
		return nil, fmt.Errorf("%w: superblock block size %d != device %d", ErrCorrupt, gotBS, bs)
	}
	if n != dev.NumBlocks() {
		return nil, fmt.Errorf("%w: superblock claims %d blocks, device has %d", ErrCorrupt, n, dev.NumBlocks())
	}
	v := &Volume{
		dev:       dev,
		blockSize: bs,
		payload:   bs - sealer.IVSize,
		nBlocks:   n,
		kdfIters:  iters,
	}
	// v1 had no journal field: the salt starts at 28. v2 inserts the
	// journal-ring length before the salt.
	saltOff := 28
	if ver == currentVer {
		v.journal = binary.BigEndian.Uint64(buf[28:])
		saltOff = 36
	}
	if v.journal >= n {
		return nil, fmt.Errorf("%w: journal of %d blocks exceeds volume", ErrCorrupt, v.journal)
	}
	copy(v.salt[:], buf[saltOff:saltOff+saltSize])
	sum := sha256.Sum256(buf[:saltOff+saltSize])
	if !bytes.Equal(buf[saltOff+saltSize:saltOff+saltSize+8], sum[:8]) {
		return nil, fmt.Errorf("%w: superblock checksum mismatch", ErrCorrupt)
	}
	// Per-volume IV stream; seeded from the salt so it differs between
	// volumes, forked from clock-free material so reopening does not
	// repeat IVs only if callers supply entropy — acceptable for a
	// simulation-grade volume and deterministic for experiments.
	v.rng = prng.New(v.salt[:]).Child("volume-iv-reopen")
	return v, nil
}

func (v *Volume) writeSuper() error {
	buf := make([]byte, v.blockSize)
	copy(buf, superMagic)
	binary.BigEndian.PutUint32(buf[8:], currentVer)
	binary.BigEndian.PutUint32(buf[12:], uint32(v.blockSize))
	binary.BigEndian.PutUint64(buf[16:], v.nBlocks)
	binary.BigEndian.PutUint32(buf[24:], uint32(v.kdfIters))
	binary.BigEndian.PutUint64(buf[28:], v.journal)
	copy(buf[36:], v.salt[:])
	sum := sha256.Sum256(buf[:36+saltSize])
	copy(buf[36+saltSize:], sum[:8])
	if err := v.dev.WriteBlock(superBlock, buf); err != nil {
		return fmt.Errorf("stegfs: write superblock: %w", err)
	}
	return nil
}

// Device returns the underlying block device.
func (v *Volume) Device() blockdev.Device { return v.dev }

// BlockSize returns the on-disk block size.
func (v *Volume) BlockSize() int { return v.blockSize }

// PayloadSize returns the per-block usable data-field size.
func (v *Volume) PayloadSize() int { return v.payload }

// NumBlocks returns the number of blocks including the superblock.
func (v *Volume) NumBlocks() uint64 { return v.nBlocks }

// FirstDataBlock returns the first block of the steg space: the block
// after the superblock and, when present, the journal ring.
func (v *Volume) FirstDataBlock() uint64 { return superBlock + 1 + v.journal }

// JournalBlocks returns the size of the reserved journal ring (0 when
// the volume was formatted without one).
func (v *Volume) JournalBlocks() uint64 { return v.journal }

// JournalRegion returns the journal ring as a device of its own — the
// fixed window [1, 1+JournalBlocks) of the volume. It fails on
// volumes formatted without a journal.
func (v *Volume) JournalRegion() (*blockdev.SubDevice, error) {
	if v.journal == 0 {
		return nil, errors.New("stegfs: volume has no journal region")
	}
	return blockdev.NewSub(v.dev, superBlock+1, v.journal)
}

// Salt returns the volume's key-derivation salt.
func (v *Volume) Salt() []byte { return append([]byte(nil), v.salt[:]...) }

// KDFIterations returns the passphrase-stretching iteration count.
func (v *Volume) KDFIterations() int { return v.kdfIters }

// NewSealer builds a block sealer for this volume's geometry.
func (v *Volume) NewSealer(key sealer.Key) (*sealer.Sealer, error) {
	return sealer.New(key, v.blockSize)
}

// NextIV draws a fresh IV from the volume's generator; the hook the
// hiding layers use when sealing blocks they batch themselves.
func (v *Volume) NextIV(dst []byte) {
	v.mu.Lock()
	v.rng.Read(dst[:sealer.IVSize])
	v.mu.Unlock()
}

// ReadSealed reads block loc and decrypts it with seal, returning the
// payload in a fresh buffer.
func (v *Volume) ReadSealed(loc uint64, seal *sealer.Sealer) ([]byte, error) {
	raw := mempool.Get(v.blockSize)
	defer mempool.Recycle(raw)
	out := make([]byte, v.payload)
	if err := v.ReadSealedInto(loc, seal, raw, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadSealedInto is ReadSealed with caller-owned buffers — the
// alloc-free form the scan paths (File.ReadAt batches, recovery's
// header walk) loop over. raw must be BlockSize bytes of scratch; the
// payload decrypts into out, which must be PayloadSize bytes.
func (v *Volume) ReadSealedInto(loc uint64, seal *sealer.Sealer, raw, out []byte) error {
	l := v.blockLocker()
	if l != nil {
		l.LockBlock(loc)
	}
	err := v.dev.ReadBlock(loc, raw)
	if l != nil {
		l.UnlockBlock(loc)
	}
	if err != nil {
		return err
	}
	return seal.Open(out, raw)
}

// WriteSealed encrypts payload under seal with a fresh IV and writes
// it to block loc.
func (v *Volume) WriteSealed(loc uint64, seal *sealer.Sealer, payload []byte) error {
	raw := mempool.Get(v.blockSize)
	defer mempool.Recycle(raw)
	v.NextIV(raw[:sealer.IVSize])
	if err := seal.Seal(raw, raw[:sealer.IVSize], payload); err != nil {
		return err
	}
	return v.WriteRaw(loc, raw)
}

// WriteRaw writes an already sealed block to loc under the block's
// lock — the write half of WriteSealed, for callers that sealed a run
// of blocks in one batch.
func (v *Volume) WriteRaw(loc uint64, raw []byte) error {
	l := v.blockLocker()
	if l != nil {
		l.LockBlock(loc)
		defer l.UnlockBlock(loc)
	}
	return v.dev.WriteBlock(loc, raw)
}

// RewriteRandom overwrites block loc with fresh random bytes — the
// dummy update available when no key for the block is held (used on
// dummy-file blocks, whose plaintext is meaningless by construction).
func (v *Volume) RewriteRandom(loc uint64) error {
	buf := mempool.Get(v.blockSize)
	defer mempool.Recycle(buf)
	v.FillRandom(buf)
	return v.WriteRaw(loc, buf)
}

// FillRandom fills buf from the volume's filler stream — the in-memory
// half of RewriteRandom, for callers that batch the device write. It
// draws nothing from the IV stream NextIV serves.
func (v *Volume) FillRandom(buf []byte) {
	v.mu.Lock()
	v.rng.Fill(buf)
	v.mu.Unlock()
}

// ReadSealedManyInto reads the blocks at locs in one scattered device
// batch and decrypts each with seal into caller-owned buffers: raws
// must hold len(locs) BlockSize scratch buffers, out len(locs)
// PayloadSize destination buffers. Nothing is allocated, which is what
// turns a sequential hidden-file scan into pure device I/O + crypto.
func (v *Volume) ReadSealedManyInto(locs []uint64, seal *sealer.Sealer, raws, out [][]byte) error {
	if len(locs) == 0 {
		return nil
	}
	var err error
	if l := v.blockLocker(); l != nil {
		unlock := l.LockBlocks(locs)
		err = blockdev.ReadBlocksAt(v.dev, locs, raws)
		unlock()
	} else {
		err = blockdev.ReadBlocksAt(v.dev, locs, raws)
	}
	if err != nil {
		return err
	}
	return seal.OpenMany(out, raws)
}

// carveBlocks appends n size-byte slices carved from slab to dst.
// slab must hold n·size bytes; capacities are clamped so adjacent
// carves cannot bleed into each other via append.
func carveBlocks(dst [][]byte, slab []byte, n, size int) [][]byte {
	for i := 0; i < n; i++ {
		dst = append(dst, slab[i*size:(i+1)*size:(i+1)*size])
	}
	return dst
}

// WriteSealedMany seals payloads[i] under seal with fresh IVs and
// writes them to locs[i], all in one scattered device batch.
func (v *Volume) WriteSealedMany(locs []uint64, seal *sealer.Sealer, payloads [][]byte) error {
	if len(locs) != len(payloads) {
		return fmt.Errorf("stegfs: %d locations for %d payloads", len(locs), len(payloads))
	}
	if len(locs) == 0 {
		return nil
	}
	slab := mempool.Get(len(locs) * v.blockSize)
	defer mempool.Recycle(slab)
	raws := carveBlocks(nil, slab, len(locs), v.blockSize)
	if err := seal.SealMany(raws, v.NextIV, payloads); err != nil {
		return err
	}
	if l := v.blockLocker(); l != nil {
		defer l.LockBlocks(locs)()
	}
	return blockdev.WriteBlocksAt(v.dev, locs, raws)
}
