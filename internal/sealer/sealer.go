// Package sealer implements the per-block encryption used by the
// steganographic file system.
//
// Following §4.1.1 of the paper, every block on the raw storage —
// whether it carries file data or dummy random bytes — has the layout
//
//	block = IV ‖ CBC-AES(key, IV, data field)
//
// A "dummy update" re-encrypts the same data field under a freshly
// drawn IV, which changes every byte of the stored block; without the
// key an observer cannot tell whether the data field itself changed.
//
// The package also provides the key-derivation helpers used to build
// file access keys (FAKs) from user passphrases.
package sealer

import (
	"crypto/aes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"steghide/internal/aeskern"
	"steghide/internal/mempool"
)

// IVSize is the length in bytes of the per-block initialization
// vector, equal to the AES block size.
const IVSize = aes.BlockSize

// KeySize is the length in bytes of all symmetric keys (AES-256).
const KeySize = 32

// Key is a symmetric encryption key.
type Key [KeySize]byte

// ErrBadBlockSize reports a device block size unusable by the sealer.
var ErrBadBlockSize = errors.New("sealer: block size must leave a data field that is a positive multiple of the AES block size")

// DeriveKey derives a labelled subkey from secret material. It is a
// single-step HKDF-like construction over HMAC-SHA256: independent
// labels yield independent keys.
func DeriveKey(secret []byte, label string) Key {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte(label))
	var k Key
	copy(k[:], mac.Sum(nil))
	return k
}

// KeyFromPassphrase stretches a passphrase and salt into a key by
// iterated hashing (a PBKDF1-style construction over SHA-256; the
// paper predates argon2 and the module is stdlib-only).
func KeyFromPassphrase(passphrase string, salt []byte, iterations int) Key {
	if iterations < 1 {
		iterations = 1
	}
	h := sha256.New()
	h.Write(salt)
	h.Write([]byte(passphrase))
	sum := h.Sum(nil)
	for i := 1; i < iterations; i++ {
		h.Reset()
		h.Write(sum)
		h.Write(salt)
		sum = h.Sum(sum[:0])
	}
	var k Key
	copy(k[:], sum)
	return k
}

// Sealer encrypts and decrypts fixed-size storage blocks under one key.
// It is safe for concurrent use: all methods operate on caller-supplied
// buffers and the expanded key is immutable. The block cipher itself —
// pipelined CBC decryption, multi-lane CBC encryption — lives in
// internal/aeskern; this package owns the block layout and the batch
// contracts.
type Sealer struct {
	ks        *aeskern.Schedule
	blockSize int // full on-disk block size, IV included
}

// New returns a Sealer for devices with the given on-disk block size.
// The data field (blockSize − IVSize) must be a positive multiple of
// the AES block size.
func New(key Key, blockSize int) (*Sealer, error) {
	field := blockSize - IVSize
	if field <= 0 || field%aes.BlockSize != 0 {
		return nil, fmt.Errorf("%w: block size %d", ErrBadBlockSize, blockSize)
	}
	return &Sealer{ks: aeskern.NewSchedule((*[KeySize]byte)(&key)), blockSize: blockSize}, nil
}

// BlockSize returns the full on-disk block size, IV included.
func (s *Sealer) BlockSize() int { return s.blockSize }

// DataSize returns the usable data-field size of each block.
func (s *Sealer) DataSize() int { return s.blockSize - IVSize }

// Seal writes IV ‖ CBC(key, IV, data) into dst. dst must be BlockSize
// bytes, data must be DataSize bytes, and iv must be IVSize bytes.
// dst must not alias data.
func (s *Sealer) Seal(dst, iv, data []byte) error {
	if len(dst) != s.blockSize {
		return fmt.Errorf("sealer: dst length %d, want %d", len(dst), s.blockSize)
	}
	if len(iv) != IVSize {
		return fmt.Errorf("sealer: iv length %d, want %d", len(iv), IVSize)
	}
	if len(data) != s.DataSize() {
		return fmt.Errorf("sealer: data length %d, want %d", len(data), s.DataSize())
	}
	copy(dst[:IVSize], iv)
	lane := [1]aeskern.Lane{s.lane(dst, data)}
	return aeskern.EncryptCBC(lane[:])
}

// lane is the CBC encryption of data into the sealed block dst, whose
// IV field is already in place.
func (s *Sealer) lane(dst, data []byte) aeskern.Lane {
	return aeskern.Lane{Key: s.ks, Dst: dst[IVSize:], Src: data, IV: dst[:IVSize]}
}

// Open decrypts a sealed block into dst. dst must be DataSize bytes and
// must not alias raw. raw must be BlockSize bytes.
func (s *Sealer) Open(dst, raw []byte) error {
	if len(raw) != s.blockSize {
		return fmt.Errorf("sealer: raw length %d, want %d", len(raw), s.blockSize)
	}
	if len(dst) != s.DataSize() {
		return fmt.Errorf("sealer: dst length %d, want %d", len(dst), s.DataSize())
	}
	return s.ks.DecryptCBC(dst, raw[IVSize:], raw[:IVSize])
}

// checkSealBatch validates a SealMany request up front, so a malformed
// batch fails before any buffer is touched or any IV is drawn — the
// same whole-batch-first contract the block I/O plane gives.
func (s *Sealer) checkSealBatch(dsts [][]byte, datas [][]byte) error {
	if len(dsts) != len(datas) {
		return fmt.Errorf("sealer: %d destinations for %d payloads", len(dsts), len(datas))
	}
	for _, dst := range dsts {
		if len(dst) != s.blockSize {
			return fmt.Errorf("sealer: dst length %d, want %d", len(dst), s.blockSize)
		}
	}
	for _, data := range datas {
		if len(data) != s.DataSize() {
			return fmt.Errorf("sealer: data length %d, want %d", len(data), s.DataSize())
		}
	}
	return nil
}

// checkOpenBatch validates an OpenMany request up front.
func (s *Sealer) checkOpenBatch(dsts, raws [][]byte) error {
	if len(dsts) != len(raws) {
		return fmt.Errorf("sealer: %d destinations for %d raw blocks", len(dsts), len(raws))
	}
	for _, raw := range raws {
		if len(raw) != s.blockSize {
			return fmt.Errorf("sealer: raw length %d, want %d", len(raw), s.blockSize)
		}
	}
	for _, dst := range dsts {
		if len(dst) != s.DataSize() {
			return fmt.Errorf("sealer: dst length %d, want %d", len(dst), s.DataSize())
		}
	}
	return nil
}

// checkResealLanes validates a ResealLanes request up front: raws[i]
// is to be resealed under seals[i] with the i-th IV of ivs.
func checkResealLanes(seals []*Sealer, raws [][]byte, ivs []byte) error {
	if len(seals) != len(raws) || len(ivs) != len(raws)*IVSize {
		return fmt.Errorf("sealer: %d sealers and %d IV bytes for %d raw blocks", len(seals), len(ivs), len(raws))
	}
	for i, s := range seals {
		if s == nil {
			return fmt.Errorf("sealer: raw block %d has no sealer", i)
		}
		if s.blockSize != seals[0].blockSize {
			return fmt.Errorf("sealer: lanes of block size %d and %d in one batch", seals[0].blockSize, s.blockSize)
		}
		if len(raws[i]) != s.blockSize {
			return fmt.Errorf("sealer: raw length %d, want %d", len(raws[i]), s.blockSize)
		}
	}
	return nil
}

// SealMany seals datas[i] into dsts[i] for every i, drawing each
// block's IV through nextIV in index order — the order a per-block loop
// would draw them. It is the batched companion of Seal for bulk writers
// (formats, reshuffles, flushes, multi-block file writes): the blocks go
// through the cipher aeskern.WideLanes lanes at a time, all under the
// sealer's one key. The batch is validated whole before any IV is
// drawn.
func (s *Sealer) SealMany(dsts [][]byte, nextIV func(iv []byte), datas [][]byte) error {
	if err := s.checkSealBatch(dsts, datas); err != nil {
		return err
	}
	for _, dst := range dsts {
		nextIV(dst[:IVSize])
	}
	var group [aeskern.WideLanes]aeskern.Lane
	for lo := 0; lo < len(dsts); lo += len(group) {
		n := min(len(group), len(dsts)-lo)
		for i := 0; i < n; i++ {
			group[i] = s.lane(dsts[lo+i], datas[lo+i])
		}
		if err := aeskern.EncryptCBC(group[:n]); err != nil {
			return err
		}
	}
	return nil
}

// OpenMany decrypts raws[i] into dsts[i] for every i — the batched
// companion of Open for bulk readers.
func (s *Sealer) OpenMany(dsts, raws [][]byte) error {
	if err := s.checkOpenBatch(dsts, raws); err != nil {
		return err
	}
	for i, dst := range dsts {
		if err := s.Open(dst, raws[i]); err != nil {
			return err
		}
	}
	return nil
}

// ResealLanes re-encrypts raws[i] in place under seals[i] and the i-th
// IV of ivs (IVSize bytes each) without changing its plaintext data
// field — the dummy-update primitive of §4.1.3. The lanes of one kernel
// step carry different keys: it is what a dummy burst runs, whose
// targets each belong to whichever file owns them. Per group of lanes,
// each block is decrypted into pooled scratch, then the group is
// encrypted back over the blocks under the new IVs.
func ResealLanes(seals []*Sealer, raws [][]byte, ivs []byte) error {
	if err := checkResealLanes(seals, raws, ivs); err != nil {
		return err
	}
	if len(raws) == 0 {
		return nil
	}
	var group [aeskern.MaxLanes]aeskern.Lane
	field := len(raws[0]) - IVSize
	scratch := mempool.Get(min(len(group), len(raws)) * field)
	defer mempool.Recycle(scratch)
	for lo := 0; lo < len(raws); lo += len(group) {
		n := min(len(group), len(raws)-lo)
		for i := 0; i < n; i++ {
			s, raw, plain := seals[lo+i], raws[lo+i], scratch[i*field:(i+1)*field]
			if err := s.Open(plain, raw); err != nil {
				return err
			}
			copy(raw[:IVSize], ivs[(lo+i)*IVSize:])
			group[i] = s.lane(raw, plain)
		}
		if err := aeskern.EncryptCBC(group[:n]); err != nil {
			return err
		}
	}
	return nil
}

// Checksum computes an 8-byte integrity tag over data, keyed by the
// sealer's derivation of ctx. It is embedded inside encrypted headers
// to detect decryption under a wrong key.
func Checksum(key Key, ctx string, data []byte) uint64 {
	mac := hmac.New(sha256.New, key[:])
	mac.Write([]byte(ctx))
	mac.Write(data)
	return binary.BigEndian.Uint64(mac.Sum(nil))
}
