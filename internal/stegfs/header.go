package stegfs

import (
	"encoding/binary"
	"fmt"

	"steghide/internal/sealer"
)

// Header payload layout (all inside the encrypted data field):
//
//	off  0  magic        [8]byte  "SGFSHDR1"
//	off  8  checksum     uint64   keyed over payload[16:]
//	off 16  flags        uint32   bit0 = dummy file
//	off 20  outerCount   uint32   pointer blocks behind doubleIndir
//	off 24  fileSize     uint64   logical size in bytes
//	off 32  blockCount   uint64   data blocks in the block map
//	off 40  pathHash     [32]byte binds header to its path name
//	off 72  singleIndir  uint64   pointer block (0 = none)
//	off 80  doubleIndir  uint64   pointer block of pointer blocks
//	off 88  direct       [(payload-88)/8]uint64
//
// Pointer blocks are sealed under the HeaderKey and hold payload/8
// block addresses each. Address 0 (the superblock) doubles as the nil
// pointer; it is never a legal data location. outerCount is stored
// explicitly because a map may hold more pointer blocks than
// blockCount needs: saves made before File.Save became copy-on-write
// kept them rather than release them, and a dummy file's save can keep
// a spare one (see File.Save). The walk reads such a map as it is.
const (
	headerMagic     = "SGFSHDR1"
	headerFixedSize = 88
	flagDummy       = 1 << 0
)

// header is the decoded form of a file header.
type header struct {
	flags      uint32
	outerCount uint32
	fileSize   uint64
	blockCount uint64
	pathHash   [32]byte
	single     uint64
	double     uint64
	direct     []uint64
}

// directSlots returns the number of direct pointers a header holds on
// this volume.
func (v *Volume) directSlots() int { return (v.payload - headerFixedSize) / 8 }

// ptrsPerBlock returns the number of addresses per pointer block; the
// first 8 payload bytes hold a keyed checksum so a corrupted or
// mis-keyed chain fails closed instead of yielding garbage locations.
func (v *Volume) ptrsPerBlock() int { return (v.payload - 8) / 8 }

// pointerBlocks returns how many pointer blocks a map of n data blocks
// needs: none within the direct slots, the single-indirect block past
// them, and past that the double-indirect block and one inner block per
// ptrsPerBlock addresses.
func (v *Volume) pointerBlocks(n int) (int, error) {
	d, per := v.directSlots(), v.ptrsPerBlock()
	switch {
	case n <= d:
		return 0, nil
	case n <= d+per:
		return 1, nil
	}
	inner := (n - d - 1) / per // ⌈(n − d − per)/per⌉
	if inner > per {
		return 0, fmt.Errorf("%w: %d inner pointer blocks", ErrTooLarge, inner)
	}
	return 2 + inner, nil
}

// MaxFileBlocks returns the largest block map representable on this
// volume: direct + single-indirect + double-indirect.
func (v *Volume) MaxFileBlocks() uint64 {
	d := uint64(v.directSlots())
	p := uint64(v.ptrsPerBlock())
	return d + p + p*p
}

// encodeHeader serializes h into a payload-sized buffer, computing the
// keyed checksum that detects decryption under a wrong key.
func (v *Volume) encodeHeader(h *header, key sealer.Key) []byte {
	buf := make([]byte, v.payload)
	copy(buf, headerMagic)
	binary.BigEndian.PutUint32(buf[16:], h.flags)
	binary.BigEndian.PutUint32(buf[20:], h.outerCount)
	binary.BigEndian.PutUint64(buf[24:], h.fileSize)
	binary.BigEndian.PutUint64(buf[32:], h.blockCount)
	copy(buf[40:], h.pathHash[:])
	binary.BigEndian.PutUint64(buf[72:], h.single)
	binary.BigEndian.PutUint64(buf[80:], h.double)
	for i, p := range h.direct {
		binary.BigEndian.PutUint64(buf[headerFixedSize+8*i:], p)
	}
	sum := sealer.Checksum(key, "stegfs-header", buf[16:])
	binary.BigEndian.PutUint64(buf[8:], sum)
	return buf
}

// decodeHeader parses a decrypted payload; the keyed checksum alone
// authenticates it. It returns ErrNotFound when the payload is not a
// header under this key (the common case while probing candidates) and
// only returns other errors for structural impossibilities. Binding the
// header to a path name is the caller's: OpenFile checks it, journal
// recovery cannot (intent records name header locations, not paths).
func (v *Volume) decodeHeader(payload []byte, key sealer.Key) (header, error) {
	if len(payload) != v.payload {
		return header{}, fmt.Errorf("%w: header payload %d bytes", ErrCorrupt, len(payload))
	}
	if string(payload[:8]) != headerMagic {
		return header{}, ErrNotFound
	}
	sum := binary.BigEndian.Uint64(payload[8:])
	if sum != sealer.Checksum(key, "stegfs-header", payload[16:]) {
		return header{}, ErrNotFound
	}
	h := header{
		flags:      binary.BigEndian.Uint32(payload[16:]),
		outerCount: binary.BigEndian.Uint32(payload[20:]),
		fileSize:   binary.BigEndian.Uint64(payload[24:]),
		blockCount: binary.BigEndian.Uint64(payload[32:]),
		single:     binary.BigEndian.Uint64(payload[72:]),
		double:     binary.BigEndian.Uint64(payload[80:]),
		direct:     make([]uint64, v.directSlots()),
	}
	copy(h.pathHash[:], payload[40:72])
	for i := range h.direct {
		h.direct[i] = binary.BigEndian.Uint64(payload[headerFixedSize+8*i:])
	}
	if h.blockCount > v.MaxFileBlocks() {
		return header{}, fmt.Errorf("%w: block count %d exceeds map capacity", ErrCorrupt, h.blockCount)
	}
	if int(h.outerCount) > v.ptrsPerBlock() {
		return header{}, fmt.Errorf("%w: outer count %d exceeds pointer block capacity", ErrCorrupt, h.outerCount)
	}
	return h, nil
}

// encodePtrBlock serializes up to ptrsPerBlock addresses behind a
// keyed checksum.
func (v *Volume) encodePtrBlock(ptrs []uint64, key sealer.Key) []byte {
	buf := make([]byte, v.payload)
	for i, p := range ptrs {
		binary.BigEndian.PutUint64(buf[8+8*i:], p)
	}
	sum := sealer.Checksum(key, "stegfs-ptr", buf[8:])
	binary.BigEndian.PutUint64(buf, sum)
	return buf
}

// decodePtrBlock verifies a pointer block payload and appends its
// first n addresses to dst.
func (v *Volume) decodePtrBlock(dst []uint64, payload []byte, n int, key sealer.Key) ([]uint64, error) {
	if n > v.ptrsPerBlock() {
		return nil, fmt.Errorf("%w: %d pointers requested from a %d-pointer block", ErrCorrupt, n, v.ptrsPerBlock())
	}
	if binary.BigEndian.Uint64(payload) != sealer.Checksum(key, "stegfs-ptr", payload[8:]) {
		return nil, fmt.Errorf("%w: pointer block checksum mismatch", ErrCorrupt)
	}
	for i := range n {
		dst = append(dst, binary.BigEndian.Uint64(payload[8+8*i:]))
	}
	return dst, nil
}
