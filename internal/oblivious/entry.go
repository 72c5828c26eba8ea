// Package oblivious implements the oblivious storage of §5: a
// hierarchy of k = log2(N/B) levels used as a cache in front of the
// StegFS partition, hiding read patterns the way the oblivious RAM of
// Goldreich–Ostrovsky hides memory accesses.
//
// Level i holds 2^i·B slots, of which at most half carry real cached
// blocks; the rest are indistinguishable dummies. Every read touches
// exactly one slot in every level — the real slot where the block was
// found, a uniformly random untouched dummy slot everywhere else — so
// the observable sequence is one random-looking probe per level per
// read, regardless of what (or whether anything) is being read.
// Because a found block is promoted to the agent's buffer and levels
// are re-shuffled before their untouched slots run out, no slot is
// ever touched twice between shuffles: the classic hierarchical-ORAM
// invariant, property-tested in this package.
//
// Shuffles are external merge sorts (internal/extsort) over a keyed
// pseudo-random sort key. Every slot a pass reads is opened and its
// GMAC tag checked, and every slot it writes is tagged and sealed
// under a fresh IV, so positions cannot be linked across passes.
// Their I/O is mostly sequential, which is why the sorting overhead
// costs far less wall-clock time than its I/O count suggests
// (Fig. 12b).
package oblivious

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"

	"steghide/internal/sealer"
)

// BlockID names a cached block: an agent-side logical address,
// invisible to the storage attacker.
type BlockID struct {
	// File is an agent-chosen ordinal for the hidden file.
	File uint64
	// Index is the logical block index within the file.
	Index uint64
}

// Sentinel errors.
var (
	// ErrCacheFull reports more distinct blocks than the last level
	// can hold; size the store for the working set.
	ErrCacheFull = errors.New("oblivious: last level full")
	// ErrValueSize reports a value that does not fit a slot.
	ErrValueSize = errors.New("oblivious: value size mismatch")
	// ErrCorruptSlot reports a slot that fails its integrity check.
	ErrCorruptSlot = errors.New("oblivious: corrupt slot")
)

// Slot payload layout (inside the sealed data field):
//
//	off  0  tag      uint64  GMAC over payload[8:], nonce = the slot's IV
//	off  8  flags    uint32  bit0 = real entry, bit1 = low shuffle class
//	off 12  _        uint32  padding
//	off 16  version  uint64  global write counter; newest wins on merge
//	off 24  nonce    uint64  per-epoch random identity; PRF input for tags
//	off 32  id.File  uint64
//	off 40  id.Index uint64
//	off 48  value    [payload-48]byte
const (
	entryMetaSize = 48
	flagReal      = 1 << 0
	flagLowClass  = 1 << 1
)

// entry is the decoded form of a slot.
type entry struct {
	real     bool
	lowClass bool
	version  uint64
	nonce    uint64
	id       BlockID
	value    []byte // nil for dummies
}

// slotSealer is what the codec needs of a sealer.Sealer. It has no
// single-block Seal: every slot the store writes is sealed in a batch,
// eight cipher lanes at a time.
type slotSealer interface {
	Open(dst, raw []byte) error
	SealMany(dsts [][]byte, nextIV func(iv []byte), datas [][]byte) error
}

// slotTagger computes the slot tag over a payload under the slot's
// IV; a *gmacTag in production.
type slotTagger interface {
	Sum(iv, data []byte) uint64
}

// gmacTag is the slot tag: GMAC (NIST SP 800-38D), that is AES-256-GCM
// sealing an empty plaintext with the payload as additional data,
// truncated to 64 bits. The nonce is the slot's 16-byte CBC IV, so the
// tag binds the IV and every seal re-tags. DESIGN.md "Slot tag" gives
// the nonce and truncation argument.
type gmacTag struct {
	aead cipher.AEAD
	out  []byte // the 16-byte GCM tag, reused across calls
}

func newGMACTag(key sealer.Key) (*gmacTag, error) {
	k := sealer.DeriveKey(key[:], "obli-slot-gmac")
	block, err := aes.NewCipher(k[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCMWithNonceSize(block, sealer.IVSize)
	if err != nil {
		return nil, err
	}
	return &gmacTag{aead: aead, out: make([]byte, 0, aead.Overhead())}, nil
}

// Sum returns the first 8 bytes of the GMAC of data under nonce iv.
func (g *gmacTag) Sum(iv, data []byte) uint64 {
	g.out = g.aead.Seal(g.out[:0], iv, nil, data)
	return binary.BigEndian.Uint64(g.out)
}

// codec translates between entries, slot payloads (the plaintext data
// field, tag included) and sealed slots under the store's key. Like
// the Store it serves, it is not safe for concurrent use.
type codec struct {
	seal     slotSealer
	tag      slotTagger
	payload  int
	valueLen int
	decBuf   []byte // payload scratch for decodeInto
}

func newCodec(key sealer.Key, blockSize int) (*codec, error) {
	s, err := sealer.New(key, blockSize)
	if err != nil {
		return nil, err
	}
	payload := s.DataSize()
	if payload <= entryMetaSize {
		return nil, fmt.Errorf("oblivious: block size %d leaves no room for values", blockSize)
	}
	tag, err := newGMACTag(key)
	if err != nil {
		return nil, err
	}
	return &codec{
		seal:     s,
		tag:      tag,
		payload:  payload,
		valueLen: payload - entryMetaSize,
		decBuf:   make([]byte, payload),
	}, nil
}

// put lays e out in payload, ready for sealing; the tag is written by
// sealMany once the slot's IV is drawn. Dummies may have short or nil
// values; real values must be exactly valueLen bytes. fill supplies
// the dummy bytes.
func (c *codec) put(payload []byte, e *entry, fill func([]byte)) error {
	h := slotMeta{real: e.real, lowClass: e.lowClass, version: e.version, nonce: e.nonce, id: e.id}
	if e.real {
		if len(e.value) != c.valueLen {
			return fmt.Errorf("%w: %d != %d", ErrValueSize, len(e.value), c.valueLen)
		}
		copy(payload[entryMetaSize:], e.value)
	} else {
		fill(payload[entryMetaSize:])
	}
	c.putHeader(payload, h)
	return nil
}

// putHeader writes h over payload's header, leaving the tag field to
// sealMany.
func (c *codec) putHeader(payload []byte, h slotMeta) {
	var flags uint32
	if h.real {
		flags |= flagReal
	}
	if h.lowClass {
		flags |= flagLowClass
	}
	binary.BigEndian.PutUint32(payload[8:], flags)
	// The padding word is cleared so a reused buffer never leaks stale
	// bytes into the ciphertext.
	binary.BigEndian.PutUint32(payload[12:], 0)
	binary.BigEndian.PutUint64(payload[16:], h.version)
	binary.BigEndian.PutUint64(payload[24:], h.nonce)
	binary.BigEndian.PutUint64(payload[32:], h.id.File)
	binary.BigEndian.PutUint64(payload[40:], h.id.Index)
}

// sealMany seals payloads[i] into raws[i] for a whole batch, the one
// seal path of the package: each slot's IV is drawn through drawIV in
// index order, the payload is tagged under it, and then the batch goes
// through the cipher eight lanes at a time with the IVs left in place.
func (c *codec) sealMany(raws, payloads [][]byte, drawIV func(iv []byte)) error {
	if len(raws) != len(payloads) {
		return fmt.Errorf("oblivious: %d slots for %d payloads", len(raws), len(payloads))
	}
	for i, raw := range raws {
		iv := raw[:sealer.IVSize]
		drawIV(iv)
		binary.BigEndian.PutUint64(payloads[i], c.tag.Sum(iv, payloads[i][8:]))
	}
	return c.seal.SealMany(raws, keepIV, payloads)
}

// keepIV is the IV source of a SealMany whose IVs are already in place.
func keepIV([]byte) {}

// open decrypts a raw slot into payload and checks its tag under the
// slot's IV. No field of a slot read from the device is trusted before
// this returns nil.
func (c *codec) open(payload, raw []byte) error {
	if err := c.seal.Open(payload, raw); err != nil {
		return err
	}
	if binary.BigEndian.Uint64(payload) != c.tag.Sum(raw[:sealer.IVSize], payload[8:]) {
		return ErrCorruptSlot
	}
	return nil
}

// slotMeta is the header of a slot without its value — what the
// shuffle's sort key and the index rebuild need.
type slotMeta struct {
	real     bool
	lowClass bool
	version  uint64
	nonce    uint64
	id       BlockID
}

// header parses the header of an opened payload.
func header(payload []byte) slotMeta {
	flags := binary.BigEndian.Uint32(payload[8:])
	return slotMeta{
		real:     flags&flagReal != 0,
		lowClass: flags&flagLowClass != 0,
		version:  binary.BigEndian.Uint64(payload[16:]),
		nonce:    binary.BigEndian.Uint64(payload[24:]),
		id: BlockID{
			File:  binary.BigEndian.Uint64(payload[32:]),
			Index: binary.BigEndian.Uint64(payload[40:]),
		},
	}
}

// decodeInto opens a raw slot into a caller-owned entry, reusing its
// value backing when capacity allows — the alloc-free decode of the
// probe and flush paths. A non-real slot leaves e.value truncated to
// zero length but keeps the backing for reuse.
func (c *codec) decodeInto(e *entry, raw []byte) error {
	payload := c.decBuf
	if err := c.open(payload, raw); err != nil {
		return err
	}
	h := header(payload)
	e.real, e.lowClass, e.version, e.nonce, e.id = h.real, h.lowClass, h.version, h.nonce, h.id
	if e.real {
		e.value = append(e.value[:0], payload[entryMetaSize:]...)
	} else {
		e.value = e.value[:0]
	}
	return nil
}
