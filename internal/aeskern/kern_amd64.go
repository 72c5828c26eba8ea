//go:build !purego

package aeskern

import (
	"encoding/binary"
	"unsafe"
)

// hasAESNI is CPUID.1:ECX bit 25, read once. Everything else the
// kernels use (SSE2, BSWAP, CMOV) is part of the amd64 baseline.
var hasAESNI = func() bool {
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<25) != 0
}()

// hasVAES512 selects the 512-bit tier (kern_vaes512_amd64.s), decided
// once beside hasAESNI. Below a kernel's minimum length, for a single
// encrypt lane and on hosts without the tier the XMM kernels run.
var hasVAES512 = hasAESNI && detectVAES512()

// hasGHASH512 selects the GMAC hash of kern_ghash512_amd64.s: the
// 512-bit tier plus VPCLMULQDQ (CPUID.7.0:ECX bit 10), decided once
// beside it. Without it GMAC runs on crypto/cipher.
var hasGHASH512 = hasVAES512 && detectVPCLMULQDQ()

func detectVPCLMULQDQ() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx, _ := cpuid(7, 0)
	return ecx&(1<<10) != 0
}

// detectVAES512 reports AVX512F and AVX512BW (CPUID.7.0:EBX bits 16
// and 30) and VAES (ECX bit 9), with the OS saving opmask and ZMM
// state: OSXSAVE (CPUID.1:ECX bit 27), then XCR0 bits 1, 2 and 5-7.
func detectVAES512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false
	}
	_, ebx, ecx, _ := cpuid(7, 0)
	if ebx&(1<<16) == 0 || ebx&(1<<30) == 0 || ecx&(1<<9) == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&0xe6 == 0xe6
}

// The 512-bit kernels' minimum lengths: one 32-block group; for the
// sixteen-lane encrypt, twice the skew between its two halves.
const (
	vaesDecMin       = 32 * BlockSize
	vaesKeystreamMin = 32
	vaesEnc16Skew    = 32 * BlockSize // as in kern_vaes512_amd64.s
	vaesEnc16Min     = 2 * vaesEnc16Skew
)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func expandKeyAsm(key *[KeySize]byte, enc, dec *[roundKeyBytes]byte)

//go:noescape
func cbcDecAsm(dk *[roundKeyBytes]byte, dst, src *byte, n int, iv *[BlockSize]byte)

//go:noescape
func cbcEnc1Asm(ek *[roundKeyBytes]byte, dst, src *byte, n int, iv *[BlockSize]byte)

//go:noescape
func cbcEnc8Asm(keys *[MaxLanes]*[roundKeyBytes]byte, dsts, srcs *[MaxLanes]*byte, ivs *[MaxLanes][BlockSize]byte, n int)

//go:noescape
func keystreamAsm(ek *[roundKeyBytes]byte, dst *byte, blocks int, ctr uint64)

//go:noescape
func cbcDecVAES512(dk *[roundKeyBytes]byte, dst, src *byte, n int, iv *[BlockSize]byte)

//go:noescape
func cbcEnc8VAES512(keys *[MaxLanes]*[roundKeyBytes]byte, dsts, srcs *[MaxLanes]*byte, ivs *[MaxLanes][BlockSize]byte, n int)

//go:noescape
func cbcEnc16VAES512(ek *[roundKeyBytes]byte, dsts, srcs *[WideLanes]*byte, ivs *[WideLanes][BlockSize]byte, n int)

//go:noescape
func keystreamVAES512(ek *[roundKeyBytes]byte, dst *byte, blocks int, ctr uint64)

//go:noescape
func ghashInit512(h *[BlockSize]byte, tbl *[ghashTableBytes]byte)

//go:noescape
func ghash512(tbl *[ghashTableBytes]byte, data *byte, n int, last, out *[BlockSize]byte)

func (s *Schedule) init(key *[KeySize]byte) {
	if !hasAESNI {
		s.soft = newSoft(key)
		return
	}
	expandKeyAsm(key, &s.enc, &s.dec)
}

func (s *Schedule) decryptCBC(dst, src, iv []byte) {
	if s.soft != nil {
		s.soft.decryptCBC(dst, src, iv)
		return
	}
	if hasVAES512 && len(src) >= vaesDecMin {
		cbcDecVAES512(&s.dec, &dst[0], &src[0], len(src), (*[BlockSize]byte)(iv))
		return
	}
	cbcDecAsm(&s.dec, &dst[0], &src[0], len(src), (*[BlockSize]byte)(iv))
}

// encryptCBC runs one validated group of at most WideLanes lanes. On
// the 512-bit tier nine or more lanes under one schedule, at least
// vaesEnc16Min bytes long, take the sixteen-lane kernel; every other
// group runs MaxLanes at a time. One lane takes the single-chain loop;
// two to eight take the eight-lane loop with the spare lanes repeating
// lane 0 (the same bytes to the same place). A chain is bound by the
// rounds' latency, so lanes are nearly free: on a Sapphire Rapids Xeon
// core one 4 080-byte lane on the single-chain loop and eight on the
// 512-bit tier each take about 3.1 µs (eight 5.0 µs on XMM), and
// sixteen 4.3-4.6 µs against 6.0 µs for two calls of eight. A group of
// two to seven pays for eight.
func encryptCBC(lanes []Lane) {
	if lanes[0].Key.soft != nil {
		encryptLanesSoft(lanes)
		return
	}
	if hasVAES512 && len(lanes) > MaxLanes && len(lanes[0].Src) >= vaesEnc16Min && oneKey(lanes) {
		encryptCBC16(lanes)
		return
	}
	for lo := 0; lo < len(lanes); lo += MaxLanes {
		encryptCBC8(lanes[lo:min(lo+MaxLanes, len(lanes))])
	}
}

// oneKey reports whether every lane runs under lanes[0]'s schedule.
func oneKey(lanes []Lane) bool {
	for i := range lanes {
		if lanes[i].Key != lanes[0].Key {
			return false
		}
	}
	return true
}

// encryptCBC16 runs nine to sixteen one-key lanes on the sixteen-lane
// kernel. The spare lanes repeat lane 8, which runs in step with them
// in the trailing half; a copy of a lane in the other half would run
// 512 bytes apart from it and, in place, read its own ciphertext.
func encryptCBC16(lanes []Lane) {
	var (
		dsts, srcs [WideLanes]*byte
		ivs        [WideLanes][BlockSize]byte
	)
	for i := range dsts {
		l := &lanes[MaxLanes]
		if i < len(lanes) {
			l = &lanes[i]
		}
		dsts[i] = unsafe.SliceData(l.Dst)
		srcs[i] = unsafe.SliceData(l.Src)
		copy(ivs[i][:], l.IV)
	}
	cbcEnc16VAES512(&lanes[0].Key.enc, &dsts, &srcs, &ivs, len(lanes[0].Src))
}

// encryptCBC8 runs one to eight lanes.
func encryptCBC8(lanes []Lane) {
	n := len(lanes[0].Src)
	if len(lanes) == 1 {
		l := &lanes[0]
		cbcEnc1Asm(&l.Key.enc, &l.Dst[0], &l.Src[0], n, (*[BlockSize]byte)(l.IV))
		return
	}
	var (
		keys       [MaxLanes]*[roundKeyBytes]byte
		dsts, srcs [MaxLanes]*byte
		ivs        [MaxLanes][BlockSize]byte
	)
	for i := range keys {
		l := &lanes[0]
		if i < len(lanes) {
			l = &lanes[i]
		}
		keys[i] = &l.Key.enc
		dsts[i] = unsafe.SliceData(l.Dst)
		srcs[i] = unsafe.SliceData(l.Src)
		copy(ivs[i][:], l.IV)
	}
	if hasVAES512 {
		cbcEnc8VAES512(&keys, &dsts, &srcs, &ivs, n)
		return
	}
	cbcEnc8Asm(&keys, &dsts, &srcs, &ivs, n)
}

func (s *Schedule) keystreamBlocks(dst []byte, ctr uint64) {
	if s.soft != nil {
		s.soft.keystreamBlocks(dst, ctr)
		return
	}
	blocks := len(dst) / BlockSize
	if hasVAES512 && blocks >= vaesKeystreamMin {
		keystreamVAES512(&s.enc, &dst[0], blocks, ctr)
		return
	}
	keystreamAsm(&s.enc, &dst[0], blocks, ctr)
}

// zeroBlock is the all-zero block: the IV under which one CBC block is
// a plain AES encryption, and the plaintext whose encryption is H.
var zeroBlock [BlockSize]byte

// j0Length is the length block of J0 for a 16-byte nonce: 0^64 ‖ [128]_64.
var j0Length = [BlockSize]byte{15: 128}

func (g *GMAC) init(key *[KeySize]byte) {
	if !hasGHASH512 {
		g.soft = newSoftGMAC(key)
		return
	}
	g.ks = NewSchedule(key)
	var h [BlockSize]byte
	cbcEnc1Asm(&g.ks.enc, &h[0], &zeroBlock[0], BlockSize, &zeroBlock)
	g.tbl = new([ghashTableBytes]byte)
	ghashInit512(&h, g.tbl)
}

// mask computes J0 = GHASH_H(iv ‖ 0^64 ‖ [128]_64) and encrypts it.
func (g *GMAC) mask(iv *[BlockSize]byte) uint64 {
	if g.soft != nil {
		return g.soft.mask(iv)
	}
	var j0 [BlockSize]byte
	ghash512(g.tbl, &iv[0], BlockSize, &j0Length, &j0)
	cbcEnc1Asm(&g.ks.enc, &j0[0], &j0[0], BlockSize, &zeroBlock)
	return binary.BigEndian.Uint64(j0[:])
}

// hash ends data with the length block [8·len(data)]_64 ‖ 0^64.
func (g *GMAC) hash(data []byte) uint64 {
	if g.soft != nil {
		return g.soft.hash(data)
	}
	var length, sum [BlockSize]byte
	binary.BigEndian.PutUint64(length[:], uint64(len(data))*8)
	ghash512(g.tbl, unsafe.SliceData(data), len(data), &length, &sum)
	return binary.BigEndian.Uint64(sum[:])
}
