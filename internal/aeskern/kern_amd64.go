//go:build !purego

package aeskern

import "unsafe"

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

// The 512-bit kernels' minimum lengths: one 32-block group.
const (
	vaesDecMin       = 32 * BlockSize
	vaesKeystreamMin = 32
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
func keystreamVAES512(ek *[roundKeyBytes]byte, dst *byte, blocks int, ctr uint64)

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

// encryptCBC runs one validated group of at most MaxLanes lanes. One
// lane takes the single-chain loop; more take the eight-lane loop with
// the spare lanes repeating lane 0 (the same bytes to the same place).
// Eight chains are not free: on a Sapphire Rapids Xeon core one
// 4 080-byte lane takes 4.2-5.2 µs, eight take about twice that on XMM
// and 1.1-1.4 times it on the 512-bit tier, so a group of two to seven
// pays for eight.
func encryptCBC(lanes []Lane) {
	if lanes[0].Key.soft != nil {
		encryptLanesSoft(lanes)
		return
	}
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
