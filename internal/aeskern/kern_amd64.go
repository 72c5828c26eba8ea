//go:build !purego

package aeskern

import "unsafe"

// hasAESNI is CPUID.1:ECX bit 25, read once. Everything else the
// kernels use (SSE2, BSWAP, CMOV) is part of the amd64 baseline.
var hasAESNI = func() bool {
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<25) != 0
}()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

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
	cbcDecAsm(&s.dec, &dst[0], &src[0], len(src), (*[BlockSize]byte)(iv))
}

// encryptCBC runs one validated group of at most MaxLanes lanes. One
// lane takes the single-chain loop; more take the eight-lane loop with
// the spare lanes repeating lane 0 (the same bytes to the same place):
// eight chains in flight cost no more time than two.
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
	cbcEnc8Asm(&keys, &dsts, &srcs, &ivs, n)
}

func (s *Schedule) keystreamBlocks(dst []byte, ctr uint64) {
	if s.soft != nil {
		s.soft.keystreamBlocks(dst, ctr)
		return
	}
	keystreamAsm(&s.enc, &dst[0], len(dst)/BlockSize, ctr)
}
