package aeskern

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
)

// GMAC is GMAC (NIST SP 800-38D: AES-256-GCM over an empty plaintext)
// with 16-byte nonces, split at the identity tag = E_K(J0(iv)) ⊕
// GHASH_H(data): the first half depends only on the nonce, the second
// only on the data. Mask(iv) ^ Hash(data) is the first eight bytes,
// big-endian, of cipher.NewGCMWithNonceSize(block, 16).Seal(nil, iv,
// nil, data).
//
// On the 512-bit tier with VPCLMULQDQ (hasGHASH512) the hash is the
// ZMM loop of kern_ghash512_amd64.s and the mask one AES block of the
// XMM kernels; elsewhere both come from crypto/cipher's GCM. The tier
// is fixed when the GMAC is made. A GMAC is not safe for concurrent
// use.
type GMAC struct {
	// 512-bit tier: the key schedule for E_K(J0) and H'^32…H'^1 with
	// zero entries after them (kern_ghash512_amd64.s).
	ks  *Schedule
	tbl *[ghashTableBytes]byte

	soft *softGMAC // stdlib path; nil when the kernel runs
}

// ghashTableBytes holds 32 powers of H and the three zero entries the
// last group's masked loads may reach past them, rounded to 36.
const ghashTableBytes = 36 * BlockSize

// NewGMAC makes a GMAC under key.
func NewGMAC(key *[KeySize]byte) *GMAC {
	g := new(GMAC)
	g.init(key)
	return g
}

// Mask returns the first eight bytes of E_K(J0(iv)), the tag of empty
// data under nonce iv.
func (g *GMAC) Mask(iv *[BlockSize]byte) uint64 { return g.mask(iv) }

// Hash returns the first eight bytes of GHASH_H over data, its zero
// padding and the length block: the tag of data under any nonce, less
// that nonce's Mask.
func (g *GMAC) Hash(data []byte) uint64 { return g.hash(data) }

// softGMAC is the stdlib path: crypto/cipher's GCM sealing an empty
// plaintext. The mask is the tag of no data; the hash is a tag under
// the all-zero nonce with that nonce's mask taken off.
type softGMAC struct {
	aead     cipher.AEAD
	zero     [BlockSize]byte // the all-zero nonce
	zeroMask uint64
	out      []byte // the 16-byte GCM tag, reused across calls
}

func newSoftGMAC(key *[KeySize]byte) *softGMAC {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // unreachable: KeySize is a valid AES key length
	}
	aead, err := cipher.NewGCMWithNonceSize(block, BlockSize)
	if err != nil {
		panic(err) // unreachable: a 16-byte nonce is valid
	}
	s := &softGMAC{aead: aead, out: make([]byte, 0, BlockSize)}
	s.zeroMask = s.tag(s.zero[:], nil)
	return s
}

func (s *softGMAC) tag(iv, data []byte) uint64 {
	s.out = s.aead.Seal(s.out[:0], iv, nil, data)
	return binary.BigEndian.Uint64(s.out)
}

func (s *softGMAC) mask(iv *[BlockSize]byte) uint64 { return s.tag(iv[:], nil) }

func (s *softGMAC) hash(data []byte) uint64 { return s.tag(s.zero[:], data) ^ s.zeroMask }
