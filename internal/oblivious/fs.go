package oblivious

import (
	"fmt"

	"steghide/internal/prng"
	"steghide/internal/stegfs"
)

// FS composes the oblivious store with a StegFS partition into the
// full system of §5.1: reads are served from the oblivious cache;
// blocks not yet cached are fetched from the StegFS partition with
// the randomized read_stegfs algorithm of Fig. 8(a); writes go to the
// StegFS partition (through whatever update policy the agent uses)
// and are repeated into the cache.
//
// Like the Store, FS is single-threaded by design: the agent owns it.
type FS struct {
	store *Store
	vol   *stegfs.Volume
	rng   *prng.PRNG

	files map[uint64]*stegfs.File
	// nextOrd backs NextOrdinal, so compositions layered on top can
	// allocate collision-free registration ordinals.
	nextOrd uint64

	// fetched is S in Fig. 8(a): blocks already copied into the
	// oblivious store. The list gives O(1) random sampling for decoy
	// reads.
	fetched     map[BlockID]bool
	fetchedList []BlockID

	// Reusable scratch (the FS is single-threaded, like the Store):
	// padBuf widens payloads to the cache value size, readBuf absorbs
	// decoy and dummy block reads whose contents are discarded,
	// blockBuf stages the one payload a partial-block ReadAt cuts from.
	padBuf   []byte
	readBuf  []byte
	blockBuf []byte

	stats FSStats
}

// FSStats counts the observable work of the StegFS-partition side.
type FSStats struct {
	Fetches    uint64 // real copies steg-store → obli-store
	Decoys     uint64 // re-reads of already-cached blocks (camouflage)
	DummyReads uint64 // idle dummy reads on the StegFS partition
}

// NewFS wires a store to a StegFS partition. The store's value size
// must fit a full StegFS block payload.
func NewFS(store *Store, vol *stegfs.Volume, rng *prng.PRNG) (*FS, error) {
	if store.ValueSize() < vol.PayloadSize() {
		return nil, fmt.Errorf("oblivious: store values (%d bytes) cannot hold StegFS payloads (%d bytes); use a larger cache block size",
			store.ValueSize(), vol.PayloadSize())
	}
	return &FS{
		store:    store,
		vol:      vol,
		rng:      rng.Child("obli-fs"),
		files:    map[uint64]*stegfs.File{},
		fetched:  map[BlockID]bool{},
		padBuf:   make([]byte, store.ValueSize()),
		readBuf:  make([]byte, vol.BlockSize()),
		blockBuf: make([]byte, vol.PayloadSize()),
	}, nil
}

// Store exposes the underlying oblivious store.
func (o *FS) Store() *Store { return o.store }

// Stats returns the StegFS-partition counters.
func (o *FS) Stats() FSStats { return o.stats }

// ResetStats zeroes the FS counters.
func (o *FS) ResetStats() { o.stats = FSStats{} }

// Register makes a hidden file readable through the cache under the
// given agent-chosen ordinal. Explicit ordinals advance the
// NextOrdinal sequence past themselves, so manual registration and
// NextOrdinal-based compositions can share one cache without
// colliding.
func (o *FS) Register(ordinal uint64, f *stegfs.File) error {
	if _, dup := o.files[ordinal]; dup {
		return fmt.Errorf("oblivious: ordinal %d already registered", ordinal)
	}
	o.files[ordinal] = f
	if ordinal > o.nextOrd {
		o.nextOrd = ordinal
	}
	return nil
}

// NextOrdinal returns a fresh registration ordinal, never reused for
// the lifetime of this FS (single-threaded, like every FS method).
func (o *FS) NextOrdinal() uint64 {
	o.nextOrd++
	return o.nextOrd
}

// Unregister forgets a registered file. Cached entries under the
// ordinal become unreachable (ordinals are never reused by callers
// that allocate them monotonically); decoy reads that still sample
// the old entries fall back to uniformly random steg blocks.
func (o *FS) Unregister(ordinal uint64) {
	delete(o.files, ordinal)
}

func (o *FS) file(ordinal uint64) (*stegfs.File, error) {
	f, ok := o.files[ordinal]
	if !ok {
		return nil, fmt.Errorf("oblivious: no file registered under ordinal %d", ordinal)
	}
	return f, nil
}

// pad widens a StegFS payload to the cache's value size. The returned
// slice is shared scratch, valid until the next pad call — both
// callers hand it straight to store.Put, which copies.
func (o *FS) pad(payload []byte) []byte {
	n := copy(o.padBuf, payload)
	clear(o.padBuf[n:]) // fresh-make semantics: the tail is zero
	return o.padBuf
}

// ReadBlock obliviously reads logical block li of the registered file
// into dst, which must be PayloadSize bytes; a hit allocates nothing.
// Cache hits touch one slot per cache level; misses run the
// read_stegfs fetch — a geometrically distributed number of reads on
// the StegFS partition, of which all but the last are decoy re-reads
// of already-cached blocks — and then insert the block into the cache.
func (o *FS) ReadBlock(ordinal, li uint64, dst []byte) error {
	if len(dst) != o.vol.PayloadSize() {
		return fmt.Errorf("%w: %d != %d", ErrValueSize, len(dst), o.vol.PayloadSize())
	}
	id := BlockID{File: ordinal, Index: li}
	if ok, err := o.store.GetInto(id, dst); err != nil || ok {
		return err
	}

	f, err := o.file(ordinal)
	if err != nil {
		return err
	}
	// Fig. 8(a): with probability |S|/M per draw, read a random
	// already-fetched block from the steg partition and redraw.
	m := o.vol.NumBlocks() - o.vol.FirstDataBlock()
	for {
		x := o.rng.Uint64n(m)
		if x < uint64(len(o.fetchedList)) {
			if err := o.decoyRead(); err != nil {
				return err
			}
			continue
		}
		payload, err := f.ReadBlockAt(li)
		if err != nil {
			return err
		}
		o.stats.Fetches++
		if !o.fetched[id] {
			o.fetched[id] = true
			o.fetchedList = append(o.fetchedList, id)
		}
		copy(dst, payload)
		return o.store.Put(id, o.pad(payload))
	}
}

// decoyRead re-reads one random already-cached block from the StegFS
// partition, following the block through any relocations via the
// owning file's map. If the block no longer exists (file shrank), a
// uniformly random steg block is read instead.
func (o *FS) decoyRead() error {
	o.stats.Decoys++
	id := o.fetchedList[o.rng.Intn(len(o.fetchedList))]
	buf := o.readBuf
	if f, ok := o.files[id.File]; ok {
		if loc, err := f.BlockLoc(id.Index); err == nil {
			return o.vol.Device().ReadBlock(loc, buf)
		}
	}
	first := o.vol.FirstDataBlock()
	loc := first + o.rng.Uint64n(o.vol.NumBlocks()-first)
	return o.vol.Device().ReadBlock(loc, buf)
}

// DummyRead is the idle-time camouflage on the StegFS partition
// (Fig. 8(a), else-branch): one uniformly random block read.
func (o *FS) DummyRead() error {
	o.stats.DummyReads++
	first := o.vol.FirstDataBlock()
	loc := first + o.rng.Uint64n(o.vol.NumBlocks()-first)
	return o.vol.Device().ReadBlock(loc, o.readBuf)
}

// WriteBlock updates logical block li of the registered file: the
// write lands on the StegFS partition through the agent's update
// policy (relocation et al.) and is repeated into the cache so
// subsequent oblivious reads see it (§5.1.2).
func (o *FS) WriteBlock(ordinal, li uint64, payload []byte, policy stegfs.UpdatePolicy) error {
	f, err := o.file(ordinal)
	if err != nil {
		return err
	}
	if len(payload) != o.vol.PayloadSize() {
		return fmt.Errorf("%w: %d != %d", ErrValueSize, len(payload), o.vol.PayloadSize())
	}
	if err := f.WriteBlockAt(li, payload, policy); err != nil {
		return err
	}
	id := BlockID{File: ordinal, Index: li}
	return o.store.Put(id, o.pad(payload))
}

// ReadAt obliviously reads len(p) bytes at byte offset off.
func (o *FS) ReadAt(ordinal uint64, p []byte, off uint64) (int, error) {
	f, err := o.file(ordinal)
	if err != nil {
		return 0, err
	}
	if off >= f.Size() {
		return 0, nil
	}
	if off+uint64(len(p)) > f.Size() {
		p = p[:f.Size()-off]
	}
	ps := uint64(o.vol.PayloadSize())
	read := 0
	for read < len(p) {
		li := (off + uint64(read)) / ps
		bo := (off + uint64(read)) % ps
		if bo == 0 && uint64(len(p)-read) >= ps {
			// A whole block lands straight in the caller's buffer.
			if err := o.ReadBlock(ordinal, li, p[read:read+int(ps)]); err != nil {
				return read, err
			}
			read += int(ps)
			continue
		}
		if err := o.ReadBlock(ordinal, li, o.blockBuf); err != nil {
			return read, err
		}
		read += copy(p[read:], o.blockBuf[bo:])
	}
	return read, nil
}
