package stegfs

import (
	"errors"

	"steghide/internal/blockdev"
	"steghide/internal/mempool"
	"steghide/internal/sealer"
)

// ReferencedAt loads the file rooted at headerLoc under the given
// header key and returns every block location its durable on-disk map
// references: the header itself, all data blocks, and the indirect
// (pointer) chain. It is the oracle journal recovery resolves intents
// against — whatever the saved header reaches is, by definition, the
// committed state a reopened file will see.
//
// It returns ErrNotFound when no header decodes at headerLoc under
// key (the file was never created, was deleted, or the key is wrong —
// indistinguishable by design), and ErrCorrupt when a header decodes
// but its pointer chain does not: such a file is unreadable, so none
// of its blocks count as live.
func ReferencedAt(vol *Volume, headerLoc uint64, key sealer.Key) (map[uint64]bool, error) {
	if headerLoc < superBlock+1+vol.journal || headerLoc >= vol.nBlocks {
		return nil, ErrNotFound
	}
	hseal, err := vol.NewSealer(key)
	if err != nil {
		return nil, err
	}
	// One raw/payload pair serves the whole walk — header, single and
	// double indirect, and every inner pointer block. Each decode copies
	// what it keeps before the next read overwrites the scratch.
	raw := mempool.Get(vol.BlockSize())
	defer mempool.Recycle(raw)
	payload := mempool.Get(vol.PayloadSize())
	defer mempool.Recycle(payload)
	one := new(blockdev.One)
	if err := vol.ReadSealedInto(one, headerLoc, hseal, raw, payload); err != nil {
		return nil, err
	}
	h, err := vol.decodeHeaderAny(payload, key)
	if err != nil {
		return nil, err
	}

	refs := map[uint64]bool{headerLoc: true}
	count := h.blockCount
	taken := uint64(0)
	take := func(ptrs []uint64) {
		for _, p := range ptrs {
			if taken == count {
				return
			}
			refs[p] = true
			taken++
		}
	}
	take(h.direct)
	per := uint64(vol.ptrsPerBlock())
	if taken < count {
		if h.single == 0 {
			return nil, errors.Join(ErrCorrupt, errors.New("stegfs: missing single-indirect block"))
		}
		refs[h.single] = true
		if err := vol.ReadSealedInto(one, h.single, hseal, raw, payload); err != nil {
			return nil, err
		}
		n := min(count-taken, per)
		ptrs, err := vol.decodePtrBlock(payload, int(n), key)
		if err != nil {
			return nil, err
		}
		take(ptrs)
	} else if h.single != 0 {
		refs[h.single] = true // over-provisioned, still owned
	}
	if h.double != 0 {
		refs[h.double] = true
		if err := vol.ReadSealedInto(one, h.double, hseal, raw, payload); err != nil {
			return nil, err
		}
		outer, err := vol.decodePtrBlock(payload, int(h.outerCount), key)
		if err != nil {
			return nil, err
		}
		for _, op := range outer {
			if op == 0 {
				return nil, errors.Join(ErrCorrupt, errors.New("stegfs: nil pointer in double-indirect chain"))
			}
			refs[op] = true
			if taken == count {
				continue // over-provisioned inner block, still owned
			}
			if err := vol.ReadSealedInto(one, op, hseal, raw, payload); err != nil {
				return nil, err
			}
			n := min(count-taken, per)
			ptrs, err := vol.decodePtrBlock(payload, int(n), key)
			if err != nil {
				return nil, err
			}
			take(ptrs)
		}
	}
	if taken != count {
		return nil, errors.Join(ErrCorrupt, errors.New("stegfs: block map incomplete"))
	}
	return refs, nil
}
