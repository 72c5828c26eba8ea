package stegfs

import (
	"fmt"
	"slices"

	"steghide/internal/blockdev"
	"steghide/internal/mempool"
	"steghide/internal/sealer"
)

// blockMap is where a file lives on the volume: its header and every
// block the header references.
type blockMap struct {
	headerLoc uint64
	blocks    []uint64 // physical location of each data block

	// Indirect-block locations (0 = not allocated). outerPtrs holds the
	// inner pointer-block locations of the double-indirect chain, all
	// outerCount of them — a loaded map may hold more than its blocks
	// need, and a save supersedes every one.
	single    uint64
	double    uint64
	outerPtrs []uint64
}

// Owned lists every block the file owns: its data blocks in map order,
// its pointer blocks (single, inner, double), then its header — the
// order a delete logs and releases them in.
func (m *blockMap) Owned() []uint64 {
	out := append(make([]uint64, 0, len(m.blocks)+len(m.outerPtrs)+3), m.blocks...)
	return append(m.appendPointers(out), m.headerLoc)
}

// appendPointers appends the map's pointer blocks — single, inner,
// double — to dst.
func (m *blockMap) appendPointers(dst []uint64) []uint64 {
	if m.single != 0 {
		dst = append(dst, m.single)
	}
	dst = append(dst, m.outerPtrs...)
	if m.double != 0 {
		dst = append(dst, m.double)
	}
	return dst
}

// mapReader reads a file's header and pointer blocks under its header
// key through one pooled raw/payload pair: each decode copies what it
// keeps before the next read overwrites the scratch.
type mapReader struct {
	vol          *Volume
	key          sealer.Key
	hseal        *sealer.Sealer
	one          blockdev.One
	raw, payload []byte
}

// newMapReader leases the scratch pair; close returns it.
func (v *Volume) newMapReader(key sealer.Key) (*mapReader, error) {
	hseal, err := v.NewSealer(key)
	if err != nil {
		return nil, err
	}
	return &mapReader{vol: v, key: key, hseal: hseal, raw: mempool.Get(v.BlockSize()), payload: mempool.Get(v.PayloadSize())}, nil
}

func (r *mapReader) close() {
	mempool.Recycle(r.raw)
	mempool.Recycle(r.payload)
}

// read opens the block at loc into r.payload.
func (r *mapReader) read(loc uint64) error {
	return r.vol.ReadSealedInto(&r.one, loc, r.hseal, r.raw, r.payload)
}

// walk reads the block map that h, the header decoded at headerLoc,
// references: direct slots, then the single-indirect block, then the
// double-indirect block and the inner blocks it lists, each pointer
// block read only while data blocks are still missing. It fails closed
// with ErrCorrupt on a pointer block that does not verify, on a map
// that ends short of h.blockCount, and on any address outside the steg
// space [FirstDataBlock, NumBlocks) — 0, the nil pointer, included: a
// loaded map is claimed block by block, and a later camouflage update
// may rewrite any block it names. It fails the same way on a map that
// names one block twice, which only damage writes: a saved map is the
// file's, block for block.
func (r *mapReader) walk(headerLoc uint64, h *header) (blockMap, error) {
	v := r.vol
	count := h.blockCount
	per := uint64(v.ptrsPerBlock())
	m := blockMap{headerLoc: headerLoc, single: h.single, double: h.double}
	m.blocks = append(make([]uint64, 0, count), h.direct[:min(count, uint64(len(h.direct)))]...)
	outside := func(loc uint64) bool { return !v.inSpace(loc) }
	checkSpace := func(locs ...uint64) error {
		if i := slices.IndexFunc(locs, outside); i >= 0 {
			return fmt.Errorf("%w: block map names block %d, outside the steg space", ErrCorrupt, locs[i])
		}
		return nil
	}
	// ptrs reads the pointer block at loc and appends its first n
	// addresses to dst.
	ptrs := func(dst []uint64, loc, n uint64) ([]uint64, error) {
		if err := checkSpace(loc); err != nil {
			return nil, err
		}
		if err := r.read(loc); err != nil {
			return nil, err
		}
		return v.decodePtrBlock(dst, r.payload, int(n), r.key)
	}
	var err error
	if missing := count - uint64(len(m.blocks)); missing > 0 {
		if h.single == 0 {
			return m, fmt.Errorf("%w: missing single-indirect block", ErrCorrupt)
		}
		m.blocks, err = ptrs(m.blocks, h.single, min(missing, per))
	} else if h.single != 0 {
		err = checkSpace(h.single) // over-provisioned, still owned
	}
	if err != nil {
		return m, err
	}
	if h.double != 0 {
		if m.outerPtrs, err = ptrs(make([]uint64, 0, h.outerCount), h.double, uint64(h.outerCount)); err != nil {
			return m, err
		}
		for _, op := range m.outerPtrs {
			if missing := count - uint64(len(m.blocks)); missing > 0 {
				m.blocks, err = ptrs(m.blocks, op, min(missing, per))
			} else {
				err = checkSpace(op) // over-provisioned, still owned
			}
			if err != nil {
				return m, err
			}
		}
	}
	if uint64(len(m.blocks)) != count {
		return m, fmt.Errorf("%w: block map incomplete (%d/%d)", ErrCorrupt, len(m.blocks), count)
	}
	if err := checkSpace(m.blocks...); err != nil {
		return m, err
	}
	owned := m.Owned()
	slices.Sort(owned)
	for i := 1; i < len(owned); i++ {
		if owned[i] == owned[i-1] {
			return m, fmt.Errorf("%w: block map names block %d twice", ErrCorrupt, owned[i])
		}
	}
	return m, nil
}

// inSpace reports whether loc lies in the steg space: past the
// superblock and the journal ring, inside the volume.
func (v *Volume) inSpace(loc uint64) bool {
	return loc >= v.FirstDataBlock() && loc < v.nBlocks
}

// ReferencedAt loads the file rooted at headerLoc under the given
// header key and returns every block location its durable on-disk map
// references: the header itself, all data blocks, and the indirect
// (pointer) chain. It is the oracle journal recovery resolves intents
// against — whatever the saved header reaches is, by definition, the
// committed state a reopened file will see, and it is read by the same
// walk OpenFile runs.
//
// It returns ErrNotFound when no header decodes at headerLoc under
// key (the file was never created, was deleted, or the key is wrong —
// indistinguishable by design), and ErrCorrupt when a header decodes
// but its map does not: such a file is unreadable, so none of its
// blocks count as live.
func ReferencedAt(vol *Volume, headerLoc uint64, key sealer.Key) (map[uint64]bool, error) {
	if !vol.inSpace(headerLoc) {
		return nil, ErrNotFound
	}
	r, err := vol.newMapReader(key)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.read(headerLoc); err != nil {
		return nil, err
	}
	h, err := vol.decodeHeader(r.payload, key)
	if err != nil {
		return nil, err
	}
	m, err := r.walk(headerLoc, &h)
	if err != nil {
		return nil, err
	}
	owned := m.Owned()
	refs := make(map[uint64]bool, len(owned))
	for _, loc := range owned {
		refs[loc] = true
	}
	return refs, nil
}
