// Package aeskern holds the AES-256 block kernels every bulk crypto
// path runs on: the §4.1.1 block cipher (IV ‖ CBC-AES) under
// internal/sealer and the filler keystream under internal/prng. The
// bytes are exactly crypto/cipher's for the same key, IV and input.
//
//   - Schedule.DecryptCBC: CBC decryption has no chain between blocks,
//     so eight (on the 512-bit tier 32) decrypt at once.
//   - EncryptCBC: one CBC chain is serial, so up to MaxLanes unrelated
//     buffers, each under its own key schedule if need be, advance one
//     block per step and keep the AES unit busy between them; on the
//     512-bit tier up to WideLanes under one schedule.
//   - Schedule.Keystream: the AES-CTR keystream, addressed by byte
//     position and written straight into the destination.
//   - GMAC: the oblivious store's slot tag, split into the nonce's
//     mask and the data's hash so that a caller can keep the hash.
//
// On amd64 with AES-NI (CPUID, read once at init) these are the loops
// of kern_amd64.s, and where the host also has AVX-512 VAES those of
// kern_vaes512_amd64.s, four blocks per instruction, and with
// VPCLMULQDQ the GHASH of kern_ghash512_amd64.s; elsewhere, and under
// the purego build tag, the standard library. The tier is a
// property of the host, with no switch, and every tier writes the same
// bytes. Key schedules
// come from AESKEYGENASSIST and AESIMC and no kernel branches on or
// indexes by secret bytes, so the assembly is constant-time in key and
// data. The exported wrappers check every length, lane-length equality
// and buffer overlap first; bad input is an error, never a fault.
package aeskern

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"unsafe"
)

const (
	// BlockSize is the AES block size in bytes.
	BlockSize = aes.BlockSize
	// KeySize is the AES-256 key size in bytes.
	KeySize = 32
	// MaxLanes is how many independent CBC chains the eight-lane
	// kernels advance per step, whatever their keys.
	MaxLanes = 8
	// WideLanes is the widest group EncryptCBC hands the kernels: on
	// the 512-bit tier sixteen lanes under one schedule advance
	// together. EncryptCBC takes any number of lanes and runs them in
	// groups of this many.
	WideLanes = 16

	roundKeyBytes = 15 * BlockSize // 14 rounds + the initial whitening key
)

// Sentinel errors of the wrappers: a buffer that is empty, not a whole
// number of AES blocks or not its peers' length; buffers that overlap
// where the kernel needs them apart.
var (
	ErrLength  = errors.New("aeskern: bad buffer length")
	ErrOverlap = errors.New("aeskern: buffers overlap")
)

// Schedule is an expanded AES-256 key. It is immutable after
// NewSchedule and safe for concurrent use.
type Schedule struct {
	// AES-NI round keys (unused on the stdlib path): enc in FIPS-197
	// order, dec in the equivalent-inverse-cipher order AESDEC consumes.
	enc, dec [roundKeyBytes]byte
	soft     *soft // stdlib path; nil when the assembly kernels run
}

// NewSchedule expands key.
func NewSchedule(key *[KeySize]byte) *Schedule {
	s := new(Schedule)
	s.init(key)
	return s
}

// Lane is one independent CBC encryption: Src encrypts into Dst under
// Key, chained from IV. Dst may be exactly Src (in place) but must not
// otherwise overlap it or any other lane's buffers.
type Lane struct {
	Key      *Schedule
	Dst, Src []byte
	IV       []byte
}

// overlap reports whether a and b share any byte.
func overlap(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b)) && b0 < a0+uintptr(len(a))
}

// DecryptCBC decrypts src into dst, chained from iv. The buffers must
// be the same positive multiple of BlockSize long and must not overlap.
func (s *Schedule) DecryptCBC(dst, src, iv []byte) error {
	if len(src) == 0 || len(src)%BlockSize != 0 || len(dst) != len(src) {
		return fmt.Errorf("%w: decrypt %d bytes into %d", ErrLength, len(src), len(dst))
	}
	if len(iv) != BlockSize {
		return fmt.Errorf("%w: iv of %d bytes", ErrLength, len(iv))
	}
	if overlap(dst, src) {
		return fmt.Errorf("%w: decrypt destination and source", ErrOverlap)
	}
	s.decryptCBC(dst, src, iv)
	return nil
}

// EncryptCBC encrypts every lane. All lanes must carry the same
// positive multiple of BlockSize bytes. Lanes run WideLanes at a time
// in slice order; the result does not depend on the grouping.
func EncryptCBC(lanes []Lane) error {
	for lo := 0; lo < len(lanes); lo += WideLanes {
		group := lanes[lo:min(lo+WideLanes, len(lanes))]
		if err := checkLanes(group, len(lanes[0].Src)); err != nil {
			return err
		}
		encryptCBC(group)
	}
	return nil
}

// checkLanes validates one group against the batch's lane length n.
func checkLanes(group []Lane, n int) error {
	if n == 0 || n%BlockSize != 0 {
		return fmt.Errorf("%w: lanes of %d bytes", ErrLength, n)
	}
	for i := range group {
		l := &group[i]
		if l.Key == nil {
			return errors.New("aeskern: lane without a key schedule")
		}
		if len(l.Src) != n || len(l.Dst) != n {
			return fmt.Errorf("%w: lane of %d into %d bytes, batch has %d", ErrLength, len(l.Src), len(l.Dst), n)
		}
		if len(l.IV) != BlockSize {
			return fmt.Errorf("%w: iv of %d bytes", ErrLength, len(l.IV))
		}
		if &l.Dst[0] != &l.Src[0] && overlap(l.Dst, l.Src) {
			return fmt.Errorf("%w: lane destination and source", ErrOverlap)
		}
		for j := range group[:i] {
			if o := &group[j]; overlap(l.Dst, o.Dst) || overlap(l.Dst, o.Src) || overlap(l.Src, o.Dst) {
				return fmt.Errorf("%w: lanes %d and %d", ErrOverlap, j, i)
			}
		}
	}
	return nil
}

// Keystream writes bytes [pos, pos+len(dst)) of the AES-CTR keystream
// — E(0) ‖ E(1) ‖ …, the counter a 128-bit big-endian integer — into
// dst. The stream is addressed by position, so any split of a range
// into calls yields the same bytes, and they equal
// cipher.NewCTR(block, zeroIV) applied to zeros.
func (s *Schedule) Keystream(dst []byte, pos uint64) {
	var edge [BlockSize]byte
	if off := int(pos % BlockSize); off != 0 && len(dst) > 0 {
		s.keystreamBlocks(edge[:], pos/BlockSize)
		n := copy(dst, edge[off:])
		dst, pos = dst[n:], pos+uint64(n)
	}
	if whole := len(dst) &^ (BlockSize - 1); whole > 0 {
		s.keystreamBlocks(dst[:whole], pos/BlockSize)
		dst, pos = dst[whole:], pos+uint64(whole)
	}
	if len(dst) > 0 {
		s.keystreamBlocks(edge[:], pos/BlockSize)
		copy(dst, edge[:])
	}
}

// soft is the standard-library path: crypto/aes under crypto/cipher's
// CBC modes, and block-at-a-time counter encryption.
type soft struct {
	block cipher.Block

	// scratch recycles CBC BlockMode pairs and the counter staging.
	// cipher.NewCBCEncrypter allocates per call, which would put a
	// one-alloc-per-block floor under every bulk path; instead each
	// mode is created once with a zero IV and its chaining state is
	// folded into the next call's IV (see softScratch), so steady-state
	// calls allocate nothing.
	scratch sync.Pool
}

// softScratch is one reusable encrypt/decrypt mode pair. A CBC mode's
// only state is its chaining vector — after CryptBlocks it equals the
// last ciphertext block processed, tracked in encPrev/decPrev. To
// encrypt under an arbitrary IV without constructing a fresh mode, XOR
// the first plaintext block with (prev ⊕ iv): the mode's internal
// chain contributes prev, the XOR cancels it and substitutes iv, and
// every later block chains off real ciphertext exactly as standard CBC
// does. Decryption fixes up the first output block the same way. The
// result is byte-for-byte cipher.NewCBC*(block, iv).CryptBlocks.
type softScratch struct {
	enc, dec cipher.BlockMode
	encPrev  [BlockSize]byte // enc's internal chain: last ciphertext it produced
	decPrev  [BlockSize]byte // dec's internal chain: last ciphertext it consumed

	// Counter block and its encryption: arguments of an interface call
	// escape, so they live here rather than on the caller's stack.
	ctr, out [BlockSize]byte
}

func newSoft(key *[KeySize]byte) *soft {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // unreachable: KeySize is a valid AES key length
	}
	s := &soft{block: block}
	s.scratch.New = func() any {
		var zero [BlockSize]byte
		return &softScratch{
			enc: cipher.NewCBCEncrypter(block, zero[:]),
			dec: cipher.NewCBCDecrypter(block, zero[:]),
		}
	}
	return s
}

func (s *soft) encryptCBC(dst, src, iv []byte) {
	c := s.scratch.Get().(*softScratch)
	fold := c.encPrev
	for i := range fold {
		fold[i] ^= iv[i]
	}
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	for i := range fold {
		dst[i] ^= fold[i]
	}
	c.enc.CryptBlocks(dst, dst)
	copy(c.encPrev[:], dst[len(dst)-BlockSize:])
	s.scratch.Put(c)
}

// encryptLanesSoft runs each lane through its schedule's stdlib path.
func encryptLanesSoft(lanes []Lane) {
	for i := range lanes {
		l := &lanes[i]
		l.Key.soft.encryptCBC(l.Dst, l.Src, l.IV)
	}
}

func (s *soft) decryptCBC(dst, src, iv []byte) {
	c := s.scratch.Get().(*softScratch)
	fold := c.decPrev
	for i := range fold {
		fold[i] ^= iv[i]
	}
	copy(c.decPrev[:], src[len(src)-BlockSize:])
	c.dec.CryptBlocks(dst, src)
	for i := range fold {
		dst[i] ^= fold[i]
	}
	s.scratch.Put(c)
}

func (s *soft) keystreamBlocks(dst []byte, ctr uint64) {
	c := s.scratch.Get().(*softScratch)
	for ; len(dst) > 0; dst, ctr = dst[BlockSize:], ctr+1 {
		binary.BigEndian.PutUint64(c.ctr[8:], ctr)
		s.block.Encrypt(c.out[:], c.ctr[:])
		copy(dst, c.out[:])
	}
	s.scratch.Put(c)
}
