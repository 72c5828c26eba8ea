package stegfs

import (
	"crypto/subtle"
	"errors"
	"fmt"

	"steghide/internal/blockdev"
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

	blockMap
	flags uint32
	size  uint64

	hseal *sealer.Sealer // header + pointer blocks
	cseal *sealer.Sealer // data blocks

	dirty bool

	// pendingFree holds the blocks the durable header may still
	// reference but the map no longer does — a shrink's cut, a save's
	// superseded pointer blocks. Save releases them once the header
	// that drops them is written, so a crash before that write cannot
	// find them reallocated out from under the old header.
	pendingFree []uint64

	// ReadAt/WriteAt batch scratch (a File is not concurrent-safe): the
	// slice headers persist here while the block slabs behind them are
	// leased from the memory plane per call.
	scanLocs []uint64
	scanRaws [][]byte
	scanOuts [][]byte
	one      blockdev.One // single-block transfers

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
	if f.blocks, err = f.draw(nBlocks); err != nil {
		f.releaseAll()
		return nil, err
	}
	f.size = nBlocks * uint64(vol.PayloadSize())
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
		vol:      vol,
		source:   source,
		fak:      fak,
		path:     path,
		blockMap: blockMap{headerLoc: headerLoc},
		flags:    flags,
		hseal:    hseal,
		cseal:    cseal,
		dirty:    true,
	}, nil
}

// OpenFile locates and loads the hidden file keyed by fak at path.
// It returns ErrNotFound when no candidate block decodes as a header
// under the FAK — whether because the file does not exist or because
// the key is wrong is deliberately undecidable.
func OpenFile(vol *Volume, fak FAK, path string, source BlockSource) (*File, error) {
	// One reader serves every probe — a miss walks all HeaderProbeLimit
	// candidates — and the map walk after the hit.
	r, err := vol.newMapReader(fak.HeaderKey)
	if err != nil {
		return nil, err
	}
	defer r.close()
	cseal, err := vol.NewSealer(fak.ContentKey)
	if err != nil {
		return nil, err
	}
	want := PathHash(path)
	first, n := source.SpaceBounds()
	for i := 0; i < HeaderProbeLimit; i++ {
		cand := fak.HeaderCandidate(i, first, n)
		if err := r.read(cand); err != nil {
			return nil, fmt.Errorf("stegfs: probe header: %w", err)
		}
		h, err := vol.decodeHeader(r.payload, fak.HeaderKey)
		if err == nil && h.pathHash != want {
			err = ErrNotFound
		}
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		m, err := r.walk(cand, &h)
		if err != nil {
			return nil, err
		}
		f := &File{
			vol:      vol,
			source:   source,
			fak:      fak,
			path:     path,
			blockMap: m,
			flags:    h.flags,
			size:     h.fileSize,
			hseal:    r.hseal,
			cseal:    cseal,
		}
		// Claim every block with the source, the header first, so an
		// agent that learns a file at login does not allocate over it.
		f.source.Acquire(f.headerLoc)
		owned := f.Owned()
		for _, loc := range owned[:len(owned)-1] {
			f.source.Acquire(loc)
		}
		return f, nil
	}
	return nil, ErrNotFound
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
func (f *File) IndirectLocs() []uint64 { return f.appendPointers(nil) }

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

// relocateBlock records that logical block li moved to newLoc. Called
// by relocating update policies; allocation bookkeeping is theirs.
func (f *File) relocateBlock(li uint64, newLoc uint64) error {
	if li >= uint64(len(f.blocks)) {
		return fmt.Errorf("stegfs: relocate logical block %d beyond map of %d", li, len(f.blocks))
	}
	f.blocks[li] = newLoc
	f.dirty = true
	return nil
}

// RemoveBlockAt withdraws loc, logical block li, from a dummy file's
// map — the donation half of allocation under the volatile
// construction, where every free block belongs to some disclosed dummy
// file. The map is compacted by moving the last entry into the hole
// (order of a dummy file's blocks is meaningless); moved is the block
// that now sits at li, or 0 when li was the last entry. The caller
// keeps each block's index (the agent's registry does), so neither
// half of the swap searches the map.
func (f *File) RemoveBlockAt(li int, loc uint64) (moved uint64, err error) {
	if !f.IsDummy() {
		return 0, fmt.Errorf("stegfs: RemoveBlockAt on non-dummy file %q", f.path)
	}
	if li < 0 || li >= len(f.blocks) || f.blocks[li] != loc {
		return 0, fmt.Errorf("stegfs: block %d not at index %d of dummy file %q", loc, li, f.path)
	}
	last := len(f.blocks) - 1
	if li != last {
		moved = f.blocks[last]
		f.blocks[li] = moved
	}
	f.blocks = f.blocks[:last]
	f.size = uint64(last) * uint64(f.vol.PayloadSize())
	f.dirty = true
	return moved, nil
}

// AppendBlockLoc adds a freed block to a dummy file's map — the
// receiving half of release under the volatile construction — and
// returns its index. The caller vouches that loc is not in the map
// already.
func (f *File) AppendBlockLoc(loc uint64) (int, error) {
	if !f.IsDummy() {
		return 0, fmt.Errorf("stegfs: AppendBlockLoc on non-dummy file %q", f.path)
	}
	f.blocks = append(f.blocks, loc)
	f.size = uint64(len(f.blocks)) * uint64(f.vol.PayloadSize())
	f.dirty = true
	return len(f.blocks) - 1, nil
}

// ReadBlockAt opens logical block li into dst, which must be
// PayloadSize bytes: the open run's payload when the block is staged,
// the device's otherwise.
func (f *File) ReadBlockAt(li uint64, dst []byte) error {
	loc, err := f.BlockLoc(li)
	if err != nil {
		return err
	}
	if len(dst) != f.vol.PayloadSize() {
		return fmt.Errorf("stegfs: block payload of %d bytes, want %d", len(dst), f.vol.PayloadSize())
	}
	if buf := f.staged(li); buf != nil {
		copy(dst, buf)
		return nil
	}
	raw := mempool.Get(f.vol.BlockSize())
	defer mempool.Recycle(raw)
	return f.vol.ReadSealedInto(&f.one, loc, f.cseal, raw, dst)
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
		if _, err := f.BlockLoc(li); err != nil {
			return err
		}
		buf = mempool.Get(f.vol.PayloadSize())
		if len(piece) < len(buf) {
			if err := f.ReadBlockAt(li, buf); err != nil {
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

// Flush issues the open run. The run is sealed in one batch,
// aeskern.WideLanes lanes at a time, handed to the policy as one
// scattered run — a sealed block does not depend on where it lands —
// and the map records where each block landed. A run the policy fails
// stays staged and leaves the map as it was, so the caller may retry.
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
	if err := policy.Update(f.scanLocs, f.headerLoc, f.cseal, f.scanRaws); err != nil {
		return err
	}
	for i, newLoc := range f.scanLocs {
		if l := logical(i); newLoc != f.blocks[l] {
			if err := f.relocateBlock(l, newLoc); err != nil {
				return err
			}
		}
	}
	f.unstage(func(uint64) bool { return true })
	return nil
}

// Resize grows or shrinks the file to size bytes. Growth allocates
// fresh random blocks (zero-filled and written immediately, so the
// blocks exist on disk); shrinkage gives blocks up — the next Save
// releases them to the source, their ciphertext left in place as
// plausible dummy content — and drops what the open run held for them.
// A shrink to a size inside a block stages zeros over that block's
// tail.
func (f *File) Resize(size uint64, policy UpdatePolicy) error {
	ps := uint64(f.vol.PayloadSize())
	want := (size + ps - 1) / ps
	if want > f.vol.MaxFileBlocks() {
		return fmt.Errorf("%w: %d blocks", ErrTooLarge, want)
	}
	cur := uint64(len(f.blocks))
	if cut := size % ps; size < f.size && cut != 0 {
		// A cut inside a block zeroes the block's tail, so a regrow
		// reads zeros there. The zeroed tail is staged like a write and
		// leaves through the policy with the run, never in place; it is
		// staged first so a refused run leaves the file as it was.
		if err := f.merge(want-1, int(cut), make([]byte, ps-cut), policy); err != nil {
			return err
		}
	}
	switch {
	case want > cur:
		// Acquire all new locations first, then materialize them with
		// one batched sealed write; on any failure the growth is rolled
		// back whole, so the map never records unwritten blocks.
		newLocs, err := f.draw(want - cur)
		if err != nil {
			return err
		}
		zero := make([]byte, ps)
		payloads := make([][]byte, len(newLocs))
		for i := range payloads {
			payloads[i] = zero
		}
		if err := f.vol.WriteSealedMany(newLocs, f.cseal, payloads); err != nil {
			f.release(newLocs)
			return err
		}
		f.blocks = append(f.blocks, newLocs...)
	case want < cur:
		cut := f.blocks[want:]
		if il := f.vol.IntentHooks(); il != nil {
			if err := il.LogFree(f.headerLoc, cut); err != nil {
				return err
			}
		}
		f.pendingFree = append(f.pendingFree, cut...)
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

// Save persists the block map copy-on-write: it draws a fresh block
// for each pointer block the map's shape needs (single, inner, double),
// writes the pointer blocks there and the header last, in place. The
// header write is the save's one commit point — until it lands the old
// header reads the old map, whose blocks are all still in place — and
// only after it are the blocks the new map supersedes released: the
// old pointer blocks and a shrink's cut. A dummy file's old pointer
// blocks join its data map instead, so its save releases nothing and
// leaves it clean; a draw that takes one of its own blocks can leave a
// spare pointer block, written empty. The draws come before any
// release, so a source with fewer free blocks than the map's pointer
// blocks fails the save and the file stays as last saved. See DESIGN.md
// "Copy-on-write saves". Save does not issue the open run — that takes a policy, and
// with it the caller's context: see Sync.
func (f *File) Save() error {
	if !f.dirty {
		return nil
	}
	v := f.vol
	old := f.appendPointers(nil)
	n := len(f.blocks)
	if f.IsDummy() {
		n += len(old)
	}
	k, err := v.pointerBlocks(n)
	if err != nil {
		return err
	}
	fresh, err := f.draw(uint64(k))
	if err != nil {
		return err
	}
	il := v.IntentHooks()
	if il != nil && len(old) > 0 && !f.IsDummy() {
		if err := il.LogFree(f.headerLoc, old); err != nil {
			f.release(fresh)
			return err
		}
	}
	// The new map is the file's from here on, whether or not a write
	// below fails: a header write that fails may still have landed, so
	// the fresh blocks stay held and the superseded ones wait for the
	// next header write.
	if f.IsDummy() {
		f.blocks = append(f.blocks, old...)
		f.size = uint64(len(f.blocks)) * uint64(v.PayloadSize())
	} else {
		f.pendingFree = append(f.pendingFree, old...)
	}
	f.single, f.outerPtrs, f.double = 0, nil, 0
	if k > 0 {
		f.single = fresh[0]
	}
	if k > 1 {
		f.outerPtrs, f.double = fresh[1:k-1:k-1], fresh[k-1]
	}
	if err := f.writePointers(); err != nil {
		return err
	}
	if err := f.saveHeader(); err != nil {
		return err
	}
	if il != nil {
		if err := il.LogSave(f.headerLoc); err != nil {
			return err
		}
	}
	f.dirty = false
	f.release(f.pendingFree)
	f.pendingFree = nil
	return nil
}

// writePointers seals the map's pointer blocks under the header key,
// in the order appendPointers lists them: the single-indirect block and
// each inner block with the addresses it holds, then the
// double-indirect block that lists the inner ones.
func (f *File) writePointers() error {
	v := f.vol
	rest := f.blocks[min(len(f.blocks), v.directSlots()):]
	for _, loc := range f.appendPointers(nil) {
		ptrs := f.outerPtrs
		if loc != f.double {
			n := min(len(rest), v.ptrsPerBlock())
			ptrs, rest = rest[:n], rest[n:]
		}
		if err := v.WriteSealed(&f.one, loc, f.hseal, v.encodePtrBlock(ptrs, f.fak.HeaderKey)); err != nil {
			return err
		}
	}
	return nil
}

// saveHeader seals the header describing the file as it stands into
// its fixed location — the write that is Save's commit point, and the
// one by which CreateFile brings a file into existence. It appends no
// OpSave: only Save, whose pointer blocks are written first, commits.
func (f *File) saveHeader() error {
	h := &header{
		flags:      f.flags,
		outerCount: uint32(len(f.outerPtrs)),
		fileSize:   f.size,
		blockCount: uint64(len(f.blocks)),
		pathHash:   PathHash(f.path),
		single:     f.single,
		double:     f.double,
		direct:     make([]uint64, f.vol.directSlots()),
	}
	copy(h.direct, f.blocks)
	return f.vol.WriteSealed(&f.one, f.headerLoc, f.hseal, f.vol.encodeHeader(h, f.fak.HeaderKey))
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
		if err := il.LogFree(f.headerLoc, f.Owned()); err != nil {
			return err
		}
	}
	if err := f.vol.RewriteRandom(&f.one, f.headerLoc); err != nil {
		return err
	}
	f.releaseAll()
	f.release(f.pendingFree)
	f.pendingFree = nil
	f.unstage(func(uint64) bool { return true })
	f.blocks = nil
	f.size = 0
	f.dirty = false
	return nil
}

// releaseAll gives every block the file owns back to the source and
// forgets its pointer blocks.
func (f *File) releaseAll() {
	f.release(f.Owned())
	f.single, f.double, f.outerPtrs = 0, 0, nil
}

// release gives locs back to the source.
func (f *File) release(locs []uint64) {
	for _, loc := range locs {
		f.source.Release(loc)
	}
}

// draw acquires n random blocks from the source and logs them as the
// file's allocation; on any failure it gives back what it drew.
func (f *File) draw(n uint64) ([]uint64, error) {
	locs := make([]uint64, 0, n)
	for uint64(len(locs)) < n {
		loc, err := f.source.AcquireRandom()
		if err != nil {
			f.release(locs)
			return nil, err
		}
		locs = append(locs, loc)
	}
	if il := f.vol.IntentHooks(); il != nil && n > 0 {
		if err := il.LogAlloc(f.headerLoc, locs); err != nil {
			f.release(locs)
			return nil, err
		}
	}
	return locs, nil
}
