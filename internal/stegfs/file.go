package stegfs

import (
	"crypto/subtle"
	"errors"
	"fmt"

	"steghide/internal/mempool"
	"steghide/internal/sealer"
)

// File is an open hidden file. The block map (header + indirect
// blocks) is cached in memory while the file is open and written out
// on Save/Close, exactly as §4.1.5 prescribes ("the file header is
// always placed in the cache and is written out only when the file is
// saved"). Small writes wait the same way: Stage merges them into one
// open run that is issued whole (see Flush), so what a crash loses is
// what it lost before — everything since the last Save. A File is not
// safe for concurrent use; the agent layer serializes access.
type File struct {
	vol    *Volume
	source BlockSource
	fak    FAK
	path   string

	headerLoc uint64
	flags     uint32
	size      uint64
	blocks    []uint64 // physical location of each data block

	// Cached indirect-block locations (0 = not allocated). outerPtrs
	// holds the inner pointer-block locations of the double-indirect
	// chain between save cycles.
	single    uint64
	double    uint64
	outerPtrs []uint64

	hseal *sealer.Sealer // header + pointer blocks
	cseal *sealer.Sealer // data blocks

	revIndex map[uint64]int // lazy physical→logical index
	dirty    bool

	// pendingFree holds blocks a shrink gave up while the volume has
	// an intent log: their release is deferred until the save that no
	// longer references them is durable, so a crash before that save
	// cannot find them reallocated out from under the old header.
	pendingFree []uint64

	// ReadAt/WriteAt batch scratch (a File is not concurrent-safe): the
	// slice headers persist here while the block slabs behind them are
	// leased from the memory plane per call.
	scanLocs []uint64
	scanRaws [][]byte
	scanOuts [][]byte

	// The open run: runLis[i] is a dirty logical block and runBufs[i] its
	// whole new payload in a buffer leased from the memory plane, at
	// most readAtBatch of them, distinct, in the order they were first
	// written. Every entry is inside the block map; nothing on the
	// device or in the map knows of them until Flush.
	runLis  []uint64
	runBufs [][]byte
}

// CreateFile creates an empty hidden file for fak at path. The header
// is placed at the first free candidate location; the header block is
// written immediately so the file exists on disk from the start.
func CreateFile(vol *Volume, fak FAK, path string, source BlockSource) (*File, error) {
	f, err := newFile(vol, fak, path, source, 0)
	if err != nil {
		return nil, err
	}
	if err := f.saveHeader(); err != nil {
		f.releaseAll()
		return nil, err
	}
	return f, nil
}

// CreateDummyFile creates a dummy file (§4.2.1) of nBlocks blocks:
// a real header describing blocks whose content is the random fill
// they already carry. Dummy files give the volatile agent material
// for dummy updates and coerced users something safe to disclose.
// The FAK's ContentKey is unused by construction.
func CreateDummyFile(vol *Volume, fak FAK, path string, source BlockSource, nBlocks uint64) (*File, error) {
	f, err := newFile(vol, fak, path, source, flagDummy)
	if err != nil {
		return nil, err
	}
	if nBlocks > vol.MaxFileBlocks() {
		f.releaseAll()
		return nil, fmt.Errorf("%w: %d blocks", ErrTooLarge, nBlocks)
	}
	for i := uint64(0); i < nBlocks; i++ {
		loc, err := source.AcquireRandom()
		if err != nil {
			f.releaseAll()
			return nil, err
		}
		f.blocks = append(f.blocks, loc)
	}
	f.size = nBlocks * uint64(vol.PayloadSize())
	if il := vol.IntentHooks(); il != nil && nBlocks > 0 {
		if err := il.LogAlloc(f.headerLoc, f.blocks); err != nil {
			f.releaseAll()
			return nil, err
		}
	}
	if err := f.Save(); err != nil {
		f.releaseAll()
		return nil, err
	}
	return f, nil
}

func newFile(vol *Volume, fak FAK, path string, source BlockSource, flags uint32) (*File, error) {
	hseal, err := vol.NewSealer(fak.HeaderKey)
	if err != nil {
		return nil, err
	}
	cseal, err := vol.NewSealer(fak.ContentKey)
	if err != nil {
		return nil, err
	}
	first, n := source.SpaceBounds()
	var headerLoc uint64
	found := false
	for i := 0; i < HeaderProbeLimit; i++ {
		cand := fak.HeaderCandidate(i, first, n)
		if source.Acquire(cand) {
			headerLoc = cand
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("stegfs: create %q: all header candidates occupied: %w", path, ErrVolumeFull)
	}
	if il := vol.IntentHooks(); il != nil {
		if err := il.LogAlloc(headerLoc, []uint64{headerLoc}); err != nil {
			source.Release(headerLoc)
			return nil, err
		}
	}
	return &File{
		vol:       vol,
		source:    source,
		fak:       fak,
		path:      path,
		headerLoc: headerLoc,
		flags:     flags,
		hseal:     hseal,
		cseal:     cseal,
		dirty:     true,
	}, nil
}

// OpenFile locates and loads the hidden file keyed by fak at path.
// It returns ErrNotFound when no candidate block decodes as a header
// under the FAK — whether because the file does not exist or because
// the key is wrong is deliberately undecidable.
func OpenFile(vol *Volume, fak FAK, path string, source BlockSource) (*File, error) {
	hseal, err := vol.NewSealer(fak.HeaderKey)
	if err != nil {
		return nil, err
	}
	cseal, err := vol.NewSealer(fak.ContentKey)
	if err != nil {
		return nil, err
	}
	want := PathHash(path)
	first, n := source.SpaceBounds()
	// One pooled scratch pair serves every probe: a miss walks all
	// HeaderProbeLimit candidates, and decodeHeader copies out what it
	// keeps.
	raw, payload := mempool.Get(vol.BlockSize()), mempool.Get(vol.PayloadSize())
	defer mempool.Recycle(raw)
	defer mempool.Recycle(payload)
	for i := 0; i < HeaderProbeLimit; i++ {
		cand := fak.HeaderCandidate(i, first, n)
		if err := vol.ReadSealedInto(cand, hseal, raw, payload); err != nil {
			return nil, fmt.Errorf("stegfs: probe header: %w", err)
		}
		h, err := vol.decodeHeader(payload, fak.HeaderKey, want)
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		f := &File{
			vol:       vol,
			source:    source,
			fak:       fak,
			path:      path,
			headerLoc: cand,
			flags:     h.flags,
			size:      h.fileSize,
			hseal:     hseal,
			cseal:     cseal,
		}
		if err := f.loadBlockMap(h); err != nil {
			return nil, err
		}
		f.claimAll()
		return f, nil
	}
	return nil, ErrNotFound
}

// loadBlockMap walks header → indirect blocks to populate f.blocks.
func (f *File) loadBlockMap(h *header) error {
	v := f.vol
	count := h.blockCount
	f.blocks = make([]uint64, 0, count)
	take := func(ptrs []uint64) {
		for _, p := range ptrs {
			if uint64(len(f.blocks)) == count {
				return
			}
			f.blocks = append(f.blocks, p)
		}
	}
	take(h.direct)
	if uint64(len(f.blocks)) < count {
		if h.single == 0 {
			return fmt.Errorf("%w: missing single-indirect block", ErrCorrupt)
		}
		remaining := count - uint64(len(f.blocks))
		n := min(remaining, uint64(v.ptrsPerBlock()))
		ptrs, err := f.readPtrBlock(h.single, int(n))
		if err != nil {
			return err
		}
		take(ptrs)
	}
	var outer []uint64
	if h.double != 0 {
		// The outer list is loaded in full (outerCount entries) even
		// when the data needs fewer inner blocks: Save over-provisions
		// rather than release, and releasing later requires knowing
		// every allocated pointer block.
		var err error
		outer, err = f.readPtrBlock(h.double, int(h.outerCount))
		if err != nil {
			return err
		}
		per := uint64(v.ptrsPerBlock())
		for _, op := range outer {
			if uint64(len(f.blocks)) == count {
				break
			}
			if op == 0 {
				return fmt.Errorf("%w: nil pointer in double-indirect chain", ErrCorrupt)
			}
			remaining := count - uint64(len(f.blocks))
			n := min(remaining, per)
			ptrs, err := f.readPtrBlock(op, int(n))
			if err != nil {
				return err
			}
			take(ptrs)
		}
	}
	if uint64(len(f.blocks)) != count {
		return fmt.Errorf("%w: block map incomplete (%d/%d)", ErrCorrupt, len(f.blocks), count)
	}
	f.single = h.single
	f.double = h.double
	f.outerPtrs = outer
	return nil
}

// readPtrBlock opens the pointer block at loc through pooled scratch
// and decodes its first n addresses.
func (f *File) readPtrBlock(loc uint64, n int) ([]uint64, error) {
	raw, payload := mempool.Get(f.vol.BlockSize()), mempool.Get(f.vol.PayloadSize())
	defer mempool.Recycle(raw)
	defer mempool.Recycle(payload)
	if err := f.vol.ReadSealedInto(loc, f.hseal, raw, payload); err != nil {
		return nil, err
	}
	return f.vol.decodePtrBlock(payload, n, f.fak.HeaderKey)
}

// claimAll registers every block of the file (header, data, indirect)
// with the source, so an agent that learns a file at login does not
// allocate over it.
func (f *File) claimAll() {
	f.source.Acquire(f.headerLoc)
	for _, loc := range f.blocks {
		f.source.Acquire(loc)
	}
	if f.single != 0 {
		f.source.Acquire(f.single)
	}
	for _, loc := range f.outerPtrs {
		f.source.Acquire(loc)
	}
	if f.double != 0 {
		f.source.Acquire(f.double)
	}
}

func (f *File) ensureRevIndex() {
	if f.revIndex != nil {
		return
	}
	f.revIndex = make(map[uint64]int, len(f.blocks))
	for i, loc := range f.blocks {
		f.revIndex[loc] = i
	}
}

// Path returns the path name the file was created/opened under.
func (f *File) Path() string { return f.path }

// Size returns the logical file size in bytes.
func (f *File) Size() uint64 { return f.size }

// NumBlocks returns the number of data blocks in the map.
func (f *File) NumBlocks() uint64 { return uint64(len(f.blocks)) }

// IsDummy reports whether this is a dummy file.
func (f *File) IsDummy() bool { return f.flags&flagDummy != 0 }

// HeaderLoc returns the (fixed) location of the header block.
func (f *File) HeaderLoc() uint64 { return f.headerLoc }

// SameLocator reports whether fak carries the same locator secret
// this file was opened with — the check an agent-side handle cache
// needs before serving a cached file to a caller who presented their
// own credentials (in Construction 1 the locator is the only per-user
// secret, so a path-keyed cache must not bypass it).
func (f *File) SameLocator(fak FAK) bool {
	return subtle.ConstantTimeCompare(f.fak.Locator[:], fak.Locator[:]) == 1
}

// BlockLocs returns a copy of the block map.
func (f *File) BlockLocs() []uint64 { return append([]uint64(nil), f.blocks...) }

// IndirectLocs returns the locations of the file's pointer blocks
// (single, inner-double, double roots) currently allocated.
func (f *File) IndirectLocs() []uint64 {
	var out []uint64
	if f.single != 0 {
		out = append(out, f.single)
	}
	out = append(out, f.outerPtrs...)
	if f.double != 0 {
		out = append(out, f.double)
	}
	return out
}

// BlockLoc returns the physical location of logical block li.
func (f *File) BlockLoc(li uint64) (uint64, error) {
	if li >= uint64(len(f.blocks)) {
		return 0, fmt.Errorf("stegfs: logical block %d beyond map of %d", li, len(f.blocks))
	}
	return f.blocks[li], nil
}

// ContentSealer exposes the data-block sealer (used by the update
// policies and the oblivious cache).
func (f *File) ContentSealer() *sealer.Sealer { return f.cseal }

// HeaderSealer exposes the header/pointer-block sealer.
func (f *File) HeaderSealer() *sealer.Sealer { return f.hseal }

// Dirty reports whether the cached block map differs from disk.
func (f *File) Dirty() bool { return f.dirty }

// RelocateBlock records that logical block li moved to newLoc. Called
// by relocating update policies; allocation bookkeeping is theirs.
func (f *File) RelocateBlock(li uint64, newLoc uint64) error {
	if li >= uint64(len(f.blocks)) {
		return fmt.Errorf("stegfs: relocate logical block %d beyond map of %d", li, len(f.blocks))
	}
	if f.revIndex != nil {
		delete(f.revIndex, f.blocks[li])
		f.revIndex[newLoc] = int(li)
	}
	f.blocks[li] = newLoc
	f.dirty = true
	return nil
}

// ReplaceBlockLoc rewires the map entry holding oldLoc to newLoc —
// the bookkeeping for the swap in Figure 6, where a displaced data
// block's location joins the dummy file that donated its target.
func (f *File) ReplaceBlockLoc(oldLoc, newLoc uint64) error {
	f.ensureRevIndex()
	li, ok := f.revIndex[oldLoc]
	if !ok {
		return fmt.Errorf("stegfs: block %d not in file %q", oldLoc, f.path)
	}
	delete(f.revIndex, oldLoc)
	f.revIndex[newLoc] = li
	f.blocks[li] = newLoc
	f.dirty = true
	return nil
}

// RemoveBlockLoc withdraws the block at loc from a dummy file's map —
// the donation half of allocation under the volatile construction,
// where every free block belongs to some disclosed dummy file. The
// map is compacted by moving the last entry into the hole (order of a
// dummy file's blocks is meaningless).
func (f *File) RemoveBlockLoc(loc uint64) error {
	if !f.IsDummy() {
		return fmt.Errorf("stegfs: RemoveBlockLoc on non-dummy file %q", f.path)
	}
	f.ensureRevIndex()
	li, ok := f.revIndex[loc]
	if !ok {
		return fmt.Errorf("stegfs: block %d not in dummy file %q", loc, f.path)
	}
	last := len(f.blocks) - 1
	delete(f.revIndex, loc)
	if li != last {
		moved := f.blocks[last]
		f.blocks[li] = moved
		f.revIndex[moved] = li
	}
	f.blocks = f.blocks[:last]
	f.size = uint64(last) * uint64(f.vol.PayloadSize())
	f.dirty = true
	return nil
}

// AppendBlockLoc adds a freed block to a dummy file's map — the
// receiving half of release under the volatile construction.
func (f *File) AppendBlockLoc(loc uint64) error {
	if !f.IsDummy() {
		return fmt.Errorf("stegfs: AppendBlockLoc on non-dummy file %q", f.path)
	}
	f.ensureRevIndex()
	if _, dup := f.revIndex[loc]; dup {
		return fmt.Errorf("stegfs: block %d already in dummy file %q", loc, f.path)
	}
	f.revIndex[loc] = len(f.blocks)
	f.blocks = append(f.blocks, loc)
	f.size = uint64(len(f.blocks)) * uint64(f.vol.PayloadSize())
	f.dirty = true
	return nil
}

// OwnsBlock reports whether loc is one of the file's data blocks.
func (f *File) OwnsBlock(loc uint64) bool {
	f.ensureRevIndex()
	_, ok := f.revIndex[loc]
	return ok
}

// ReadBlockAt returns the plaintext payload of logical block li.
func (f *File) ReadBlockAt(li uint64) ([]byte, error) {
	loc, err := f.BlockLoc(li)
	if err != nil {
		return nil, err
	}
	if buf := f.staged(li); buf != nil {
		return append([]byte(nil), buf...), nil
	}
	return f.vol.ReadSealed(loc, f.cseal)
}

// staged returns the open run's payload for logical block li, or nil.
func (f *File) staged(li uint64) []byte {
	for i, l := range f.runLis {
		if l == li {
			return f.runBufs[i]
		}
	}
	return nil
}

// unstage drops the open run's entries for which gone reports true,
// returning their buffers to the memory plane.
func (f *File) unstage(gone func(li uint64) bool) {
	n := 0
	for i, li := range f.runLis {
		if gone(li) {
			mempool.Recycle(f.runBufs[i])
			continue
		}
		f.runLis[n], f.runBufs[n] = li, f.runBufs[i]
		n++
	}
	clear(f.runBufs[n:])
	f.runLis, f.runBufs = f.runLis[:n], f.runBufs[:n]
}

// merge makes piece the bytes from offset bo of logical block li in the
// open run. A block not yet staged takes a leased buffer — read and
// opened from the device once if piece leaves any of it standing — and,
// when the run is full, the run is issued first.
func (f *File) merge(li uint64, bo int, piece []byte, policy UpdatePolicy) error {
	buf := f.staged(li)
	if buf == nil {
		if len(f.runLis) == readAtBatch {
			if err := f.Flush(policy); err != nil {
				return err
			}
		}
		loc, err := f.BlockLoc(li)
		if err != nil {
			return err
		}
		buf = mempool.Get(f.vol.PayloadSize())
		if len(piece) < len(buf) {
			raw := mempool.Get(f.vol.BlockSize())
			err := f.vol.ReadSealedInto(loc, f.cseal, raw, buf)
			mempool.Recycle(raw)
			if err != nil {
				mempool.Recycle(buf)
				return err
			}
		}
		f.runLis, f.runBufs = append(f.runLis, li), append(f.runBufs, buf)
	}
	copy(buf[bo:], piece)
	return nil
}

// WriteBlockAt makes payload the content of logical block li, on the
// device when it returns and without touching the file's size: the run
// of one, sealed from payload, unless the open run held more.
func (f *File) WriteBlockAt(li uint64, payload []byte, policy UpdatePolicy) error {
	if len(payload) != f.vol.PayloadSize() {
		return fmt.Errorf("stegfs: block payload of %d bytes, want %d", len(payload), f.vol.PayloadSize())
	}
	return f.flushWith(li, payload, policy)
}

// Flush issues the open run. The run is sealed in one batch, eight
// lanes at a time, handed to the policy as one scattered run — a sealed
// block does not depend on where it lands — and the map records where
// each block landed. A run the policy fails stays staged and leaves the
// map as it was, so the caller may retry.
func (f *File) Flush(policy UpdatePolicy) error {
	return f.flushWith(0, nil, policy)
}

// flushWith is Flush with a stretch of whole blocks — the logical blocks
// from li on, their payloads still in the caller's buffer p — riding in
// the same run. They are not staged: if the policy fails, only the open
// run is kept. A staged block the stretch covers is superseded: it sits
// the run out and is dropped with it.
func (f *File) flushWith(li uint64, p []byte, policy UpdatePolicy) error {
	ps, bs := f.vol.PayloadSize(), f.vol.BlockSize()
	direct := len(p) / ps
	if end := li + uint64(direct); end > uint64(len(f.blocks)) {
		return fmt.Errorf("stegfs: logical block %d beyond map of %d", end-1, len(f.blocks))
	}
	staged := len(f.runLis)
	for i := 0; direct > 0 && i < staged; {
		if l := f.runLis[i]; l < li || l >= li+uint64(direct) {
			i++
			continue
		}
		staged--
		f.runLis[i], f.runLis[staged] = f.runLis[staged], f.runLis[i]
		f.runBufs[i], f.runBufs[staged] = f.runBufs[staged], f.runBufs[i]
	}
	n := staged + direct
	if n == 0 {
		return nil
	}
	logical := func(i int) uint64 {
		if i < staged {
			return f.runLis[i]
		}
		return li + uint64(i-staged)
	}
	f.scanOuts = carveBlocks(append(f.scanOuts[:0], f.runBufs[:staged]...), p, direct, ps)
	slab := mempool.Get(n * bs)
	defer mempool.Recycle(slab)
	f.scanRaws = carveBlocks(f.scanRaws[:0], slab, n, bs)
	if err := f.cseal.SealMany(f.scanRaws, f.vol.NextIV, f.scanOuts); err != nil {
		return err
	}
	f.scanLocs = f.scanLocs[:0]
	for i := 0; i < n; i++ {
		f.scanLocs = append(f.scanLocs, f.blocks[logical(i)])
	}
	if il := f.vol.IntentHooks(); il != nil {
		// A relocation intent for a block must be able to name this
		// file's header, so recovery knows which on-disk map decides it.
		for _, loc := range f.scanLocs {
			il.NoteOwner(loc, f.headerLoc)
		}
	}
	if err := policy.Update(f.scanLocs, f.cseal, f.scanRaws); err != nil {
		return err
	}
	for i, newLoc := range f.scanLocs {
		if l := logical(i); newLoc != f.blocks[l] {
			if err := f.RelocateBlock(l, newLoc); err != nil {
				return err
			}
		}
	}
	f.unstage(func(uint64) bool { return true })
	return nil
}

// Resize grows or shrinks the file to size bytes. Growth allocates
// fresh random blocks (zero-filled and written immediately, so the
// blocks exist on disk); shrinkage releases blocks back to the source
// — their ciphertext remains in place as plausible dummy content — and
// drops what the open run held for them.
func (f *File) Resize(size uint64, policy UpdatePolicy) error {
	ps := uint64(f.vol.PayloadSize())
	want := (size + ps - 1) / ps
	if want > f.vol.MaxFileBlocks() {
		return fmt.Errorf("%w: %d blocks", ErrTooLarge, want)
	}
	cur := uint64(len(f.blocks))
	switch {
	case want > cur:
		// Acquire all new locations first, then materialize them with
		// one batched sealed write; on any failure the growth is rolled
		// back whole, so the map never records unwritten blocks.
		newLocs := make([]uint64, 0, want-cur)
		rollback := func() {
			for _, loc := range newLocs {
				f.source.Release(loc)
			}
		}
		for i := cur; i < want; i++ {
			loc, err := f.source.AcquireRandom()
			if err != nil {
				rollback()
				return err
			}
			newLocs = append(newLocs, loc)
		}
		if il := f.vol.IntentHooks(); il != nil {
			if err := il.LogAlloc(f.headerLoc, newLocs); err != nil {
				rollback()
				return err
			}
		}
		zero := make([]byte, ps)
		payloads := make([][]byte, len(newLocs))
		for i := range payloads {
			payloads[i] = zero
		}
		if err := f.vol.WriteSealedMany(newLocs, f.cseal, payloads); err != nil {
			rollback()
			return err
		}
		for _, loc := range newLocs {
			if f.revIndex != nil {
				f.revIndex[loc] = len(f.blocks)
			}
			f.blocks = append(f.blocks, loc)
		}
	case want < cur:
		cut := f.blocks[want:]
		il := f.vol.IntentHooks()
		if il != nil {
			if err := il.LogFree(f.headerLoc, cut); err != nil {
				return err
			}
		}
		for _, loc := range cut {
			if f.revIndex != nil {
				delete(f.revIndex, loc)
			}
			if il != nil {
				// Defer the release: the on-disk header still references
				// loc until the next save lands, so it must not be
				// reallocated or refilled before then.
				f.pendingFree = append(f.pendingFree, loc)
			} else {
				f.source.Release(loc)
			}
		}
		f.blocks = f.blocks[:want]
		f.unstage(func(li uint64) bool { return li >= want })
	}
	f.size = size
	f.dirty = true
	return nil
}

// readAtBatch bounds how many blocks one ReadAt device batch gathers,
// how many blocks the open run holds, and how many whole blocks a write
// seals from the caller's buffer as one run.
const readAtBatch = 64

// RunBlocks is the open run's bound, for a client that holds writes
// before they reach Stage and must send them where Stage would issue.
const RunBlocks = readAtBatch

// ReadAt reads len(p) bytes at byte offset off, returning the number
// of bytes read; reads past EOF are truncated. The spanned blocks are
// fetched in scattered device batches of up to readAtBatch blocks —
// a sequential scan of a randomly-placed file costs one device call
// per batch instead of one per block. Blocks in the open run are served
// from it; a read never issues the run.
func (f *File) ReadAt(p []byte, off uint64) (int, error) {
	if off >= f.size {
		return 0, nil
	}
	if off+uint64(len(p)) > f.size {
		p = p[:f.size-off]
	}
	ps := uint64(f.vol.PayloadSize())
	bs := f.vol.BlockSize()
	read := 0
	// Batch buffers: slabs leased from the memory plane for the span of
	// this call, slice headers kept on the File (not concurrent-safe by
	// contract), location list reused across calls. A warm sequential
	// scan allocates nothing.
	rawSlab := mempool.Get(readAtBatch * bs)
	outSlab := mempool.Get(readAtBatch * int(ps))
	defer mempool.Recycle(rawSlab)
	defer mempool.Recycle(outSlab)
	for read < len(p) {
		li := (off + uint64(read)) / ps
		bo := (off + uint64(read)) % ps
		n := (bo + uint64(len(p)-read) + ps - 1) / ps
		if n > readAtBatch {
			n = readAtBatch
		}
		f.scanLocs = f.scanLocs[:0]
		for i := uint64(0); i < n; i++ {
			loc, err := f.BlockLoc(li + i)
			if err != nil {
				return read, err
			}
			f.scanLocs = append(f.scanLocs, loc)
		}
		f.scanRaws = carveBlocks(f.scanRaws[:0], rawSlab, int(n), bs)
		f.scanOuts = carveBlocks(f.scanOuts[:0], outSlab, int(n), int(ps))
		if err := f.vol.ReadSealedManyInto(f.scanLocs, f.cseal, f.scanRaws, f.scanOuts); err != nil {
			return read, err
		}
		for i, payload := range f.scanOuts {
			// A reader sees its principal's own staged writes.
			if buf := f.staged(li + uint64(i)); buf != nil {
				payload = buf
			}
			read += copy(p[read:], payload[bo:])
			bo = 0
		}
	}
	return read, nil
}

// WriteAt writes p at byte offset off via the policy, growing the file
// as needed: Stage, then Flush — the write is on the device when it
// returns. The blocks p touches leave as one run together with whatever
// the open run already held.
func (f *File) WriteAt(p []byte, off uint64, policy UpdatePolicy) (int, error) {
	n, err := f.Stage(p, off, policy)
	if err != nil {
		return n, err
	}
	return n, f.Flush(policy)
}

// Stage merges p at byte offset off into the open run, growing the file
// as needed: a whole block is copied in, a partial block is read and
// opened once and then patched in memory, a second write to a staged
// block overwrites it. Nothing reaches the policy until the run is
// issued — by Flush, or here when a block would be the run's
// readAtBatch+1st. A stretch of readAtBatch whole blocks is not copied:
// it is sealed straight from p and issued at once, the open run — this
// write's partial head in it, and its partial tail — riding along, so a
// large write costs one run per readAtBatch blocks and no more.
//
// A run's IVs are drawn ahead of the IVs its placements' camouflage
// updates draw, not interleaved with them; each is still a fresh draw of
// the same stream, so the update stream's distribution is untouched. A
// run the policy fails changes nothing on the device or in the map and
// ends the write; the runs issued before it keep their new content, and
// what was staged stays staged.
func (f *File) Stage(p []byte, off uint64, policy UpdatePolicy) (int, error) {
	if f.IsDummy() {
		return 0, fmt.Errorf("stegfs: write to dummy file %q", f.path)
	}
	end := off + uint64(len(p))
	if end > f.size {
		if err := f.Resize(end, policy); err != nil {
			return 0, err
		}
	}
	ps := f.vol.PayloadSize()
	written := 0
	for written < len(p) {
		li := (off + uint64(written)) / uint64(ps)
		bo := int((off + uint64(written)) % uint64(ps))
		rest := p[written:]
		if bo == 0 && len(rest) >= readAtBatch*ps {
			run, tail := rest[:readAtBatch*ps], rest[readAtBatch*ps:]
			if len(tail) >= ps {
				tail = nil // not the end of the write yet
			} else if len(tail) > 0 {
				if err := f.merge(li+readAtBatch, 0, tail, policy); err != nil {
					return written, err
				}
			}
			if err := f.flushWith(li, run, policy); err != nil {
				return written, err
			}
			written += len(run) + len(tail)
			continue
		}
		n := min(ps-bo, len(rest))
		if err := f.merge(li, bo, rest[:n], policy); err != nil {
			return written, err
		}
		written += n
	}
	return written, nil
}

// Save persists the block map: pointer blocks first, then the header.
// The header's location is fixed (it must stay derivable from the
// FAK), so it is rewritten in place; pointer blocks are rewritten in
// place under the header key. All of these writes are ordinary block
// updates in the observable stream.
//
// Indirect blocks are allocated on demand but never released here:
// allocation can itself mutate the block map (a dummy file's source
// may donate the file's own blocks), and an allocate/release pair at
// a capacity boundary would oscillate forever. Over-provisioned
// indirect blocks are recorded in the header and reused on growth;
// they are only released by Delete.
//
// Save does not issue the open run — that takes a policy, and with it
// the caller's context: see Sync.
func (f *File) Save() error {
	if !f.dirty {
		return nil
	}
	v := f.vol
	d := v.directSlots()
	per := v.ptrsPerBlock()

	// Phase 1: allocate indirect blocks until the requirement is
	// stable. Each acquisition may shrink f.blocks (self-donating
	// dummy files), which can only reduce the requirement, so the
	// loop terminates.
	var acquired []uint64
	for {
		n := len(f.blocks)
		needSingle := n > d
		nInner := 0
		if n > d+per {
			nInner = (n - d - per + per - 1) / per
		}
		if nInner > per {
			return fmt.Errorf("%w: %d inner pointer blocks", ErrTooLarge, nInner)
		}
		switch {
		case needSingle && f.single == 0:
			loc, err := f.source.AcquireRandom()
			if err != nil {
				return err
			}
			f.single = loc
			acquired = append(acquired, loc)
		case nInner > len(f.outerPtrs):
			loc, err := f.source.AcquireRandom()
			if err != nil {
				return err
			}
			f.outerPtrs = append(f.outerPtrs, loc)
			acquired = append(acquired, loc)
		case (nInner > 0 || len(f.outerPtrs) > 0) && f.double == 0:
			loc, err := f.source.AcquireRandom()
			if err != nil {
				return err
			}
			f.double = loc
			acquired = append(acquired, loc)
		default:
			goto stable
		}
	}
stable:
	il := f.vol.IntentHooks()
	if il != nil && len(acquired) > 0 {
		if err := il.LogAlloc(f.headerLoc, acquired); err != nil {
			return err
		}
	}

	// Phase 2: the map is now stable; write pointer blocks and header
	// from it.
	{
		h := &header{
			flags:      f.flags,
			outerCount: uint32(len(f.outerPtrs)),
			fileSize:   f.size,
			blockCount: uint64(len(f.blocks)),
			pathHash:   PathHash(f.path),
			single:     f.single,
			double:     f.double,
		}
		h.direct = make([]uint64, d)
		rest := f.blocks[copy(h.direct, f.blocks):]

		if len(rest) > 0 {
			n := min(len(rest), per)
			if err := v.WriteSealed(f.single, f.hseal, v.encodePtrBlock(rest[:n], f.fak.HeaderKey)); err != nil {
				return err
			}
			rest = rest[n:]
		}
		for i := 0; len(rest) > 0; i++ {
			n := min(len(rest), per)
			if err := v.WriteSealed(f.outerPtrs[i], f.hseal, v.encodePtrBlock(rest[:n], f.fak.HeaderKey)); err != nil {
				return err
			}
			rest = rest[n:]
		}
		if f.double != 0 {
			if err := v.WriteSealed(f.double, f.hseal, v.encodePtrBlock(f.outerPtrs, f.fak.HeaderKey)); err != nil {
				return err
			}
		}
		if err := f.saveHeaderFrom(h); err != nil {
			return err
		}
	}
	if il != nil {
		// The header write above is this file's commit point: record it
		// and only then let go of blocks the saved map no longer
		// references.
		if err := il.LogSave(f.headerLoc); err != nil {
			return err
		}
		for _, loc := range f.pendingFree {
			f.source.Release(loc)
		}
		f.pendingFree = nil
	}
	f.dirty = false
	return nil
}

func (f *File) saveHeader() error {
	d := f.vol.directSlots()
	h := &header{
		flags:      f.flags,
		outerCount: uint32(len(f.outerPtrs)),
		fileSize:   f.size,
		blockCount: uint64(len(f.blocks)),
		pathHash:   PathHash(f.path),
		direct:     make([]uint64, d),
		single:     f.single,
		double:     f.double,
	}
	copy(h.direct, f.blocks)
	return f.saveHeaderFrom(h)
}

func (f *File) saveHeaderFrom(h *header) error {
	payload := f.vol.encodeHeader(h, f.fak.HeaderKey)
	return f.vol.WriteSealed(f.headerLoc, f.hseal, payload)
}

// Sync issues the open run and then saves the map its blocks landed in.
// A run the policy refuses stays staged and nothing is saved, so the
// call can be repeated.
func (f *File) Sync(policy UpdatePolicy) error {
	if err := f.Flush(policy); err != nil {
		return err
	}
	return f.Save()
}

// Close saves the file if dirty. The File must not be used after.
func (f *File) Close() error { return f.Save() }

// Delete removes the file: all blocks (data, pointer, header) are
// released to the source and the header block is overwritten with
// random bytes so it can never decode again. To an observer this is
// one more update in the stream. The open run is discarded unissued.
func (f *File) Delete() error {
	if il := f.vol.IntentHooks(); il != nil {
		gone := append(f.BlockLocs(), f.IndirectLocs()...)
		gone = append(gone, f.headerLoc)
		if err := il.LogFree(f.headerLoc, gone); err != nil {
			return err
		}
	}
	if err := f.vol.RewriteRandom(f.headerLoc); err != nil {
		return err
	}
	f.releaseAll()
	for _, loc := range f.pendingFree {
		f.source.Release(loc)
	}
	f.pendingFree = nil
	f.unstage(func(uint64) bool { return true })
	f.blocks = nil
	f.revIndex = nil
	f.size = 0
	f.dirty = false
	return nil
}

func (f *File) releaseAll() {
	for _, loc := range f.blocks {
		f.source.Release(loc)
	}
	if f.single != 0 {
		f.source.Release(f.single)
		f.single = 0
	}
	for _, loc := range f.outerPtrs {
		f.source.Release(loc)
	}
	f.outerPtrs = nil
	if f.double != 0 {
		f.source.Release(f.double)
		f.double = 0
	}
	f.source.Release(f.headerLoc)
}
