//go:build !purego

#include "textflag.h"

// GHASH on the 512-bit tier: VPCLMULQDQ multiplies four 128-bit lanes
// per instruction, so one group of 32 blocks is eight loads and 32
// carry-less multiplications against H'^32…H'^1 held in Z16-Z23, then
// one reduction. It runs only where hasGHASH512 holds (the 512-bit AES
// tier plus VPCLMULQDQ). Field elements are in the representation of
// the standard library's amd64 GCM (crypto/internal/fips140/aes/gcm):
// every block byte-reversed by bswapMask, H doubled once (H' = H·x) so
// that a product needs no shift, and a 256-bit product folded back with
// two multiplications by gcmPoly. Loop bounds, masks and addresses
// depend only on public lengths and pointers, and every routine ends
// in VZEROUPPER.

DATA bswapMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+8(SB)/8, $0x0001020304050607
GLOBL bswapMask<>(SB), RODATA|NOPTR, $16

DATA gcmPoly<>+0(SB)/8, $0x0000000000000001
DATA gcmPoly<>+8(SB)/8, $0xc200000000000000
GLOBL gcmPoly<>(SB), RODATA|NOPTR, $16

// REDUCE folds the 256-bit product X10:X9 (high:low) into X8, gcmPoly
// in X14; it clobbers X9 and X12.
#define REDUCE \
	VPCLMULQDQ $0x10, X14, X9, X12; \
	VPSHUFD    $0x4e, X9, X9; \
	VPXOR      X12, X9, X9; \
	VPCLMULQDQ $0x10, X14, X9, X12; \
	VPSHUFD    $0x4e, X9, X9; \
	VPXOR      X12, X9, X9; \
	VPXOR      X10, X9, X8

// GFMUL sets X8 = X0·X1, clobbering X9-X12.
#define GFMUL \
	VPCLMULQDQ $0x00, X1, X0, X9; \
	VPCLMULQDQ $0x11, X1, X0, X10; \
	VPCLMULQDQ $0x01, X1, X0, X11; \
	VPCLMULQDQ $0x10, X1, X0, X12; \
	VPXOR      X12, X11, X11; \
	VPSLLDQ    $8, X11, X12; \
	VPSRLDQ    $8, X11, X11; \
	VPXOR      X12, X9, X9; \
	VPXOR      X11, X10, X10; \
	REDUCE

// MULACC multiplies the four blocks of d by the four powers in h, lane
// by lane, and adds the low, high and middle halves of the products
// into Z9, Z10 and Z11.
#define MULACC(h, d) \
	VPCLMULQDQ $0x00, h, d, Z12; \
	VPCLMULQDQ $0x11, h, d, Z13; \
	VPXORQ     Z12, Z9, Z9; \
	VPXORQ     Z13, Z10, Z10; \
	VPCLMULQDQ $0x01, h, d, Z12; \
	VPCLMULQDQ $0x10, h, d, Z13; \
	VPTERNLOGD $0x96, Z12, Z13, Z11

// FOLD adds the middle halves into the low and high ones, sums the four
// lanes and reduces the sum into X8, clobbering Z9-Z13.
#define FOLD \
	VPSLLDQ       $8, Z11, Z12; \
	VPSRLDQ       $8, Z11, Z11; \
	VPXORQ        Z12, Z9, Z9; \
	VPXORQ        Z11, Z10, Z10; \
	VEXTRACTI64X4 $1, Z9, Y12; \
	VEXTRACTI64X4 $1, Z10, Y13; \
	VPXOR         Y12, Y9, Y9; \
	VPXOR         Y13, Y10, Y10; \
	VEXTRACTI128  $1, Y9, X12; \
	VEXTRACTI128  $1, Y10, X13; \
	VPXOR         X12, X9, X9; \
	VPXOR         X13, X10, X10; \
	REDUCE

#define ZEROACC \
	VPXORQ Z9, Z9, Z9; \
	VPXORQ Z10, Z10, Z10; \
	VPXORQ Z11, Z11, Z11

// func ghashInit512(h *[16]byte, tbl *[ghashTableBytes]byte)
//
// Writes H'^(32-i) into entry i of tbl (16 bytes each) for i < 32, from
// the hash key h = E_K(0^128); H' is H doubled as gcmAesInit does. The
// entries after them stay as the caller left them, zero.
TEXT ·ghashInit512(SB), NOSPLIT, $0-16
	MOVQ    h+0(FP), SI
	MOVQ    tbl+8(FP), DI
	VMOVDQU bswapMask<>(SB), X15
	VMOVDQU gcmPoly<>(SB), X14
	VMOVDQU (SI), X0
	VPSHUFB X15, X0, X0
	VPSHUFD $0xff, X0, X11
	VPSRAD  $31, X11, X11
	VPAND   X14, X11, X11
	VPSRLD  $31, X0, X12
	VPSLLDQ $4, X12, X12
	VPSLLD  $1, X0, X0
	VPXOR   X11, X0, X0
	VPXOR   X12, X0, X0
	VMOVDQU X0, 496(DI)
	VMOVDQU X0, X1
	MOVQ    $480, CX

powers:
	GFMUL
	VMOVDQU X8, (DI)(CX*1)
	VMOVDQU X8, X0
	SUBQ    $16, CX
	JGE     powers
	VZEROUPPER
	RET

// func ghash512(tbl *[ghashTableBytes]byte, data *byte, n int, last, out *[16]byte)
//
// Writes to out GHASH_H over the n bytes at data, zero-padded to whole
// blocks, and then the block at last: (…((X1·H ⊕ X2)·H ⊕ …)·H ⊕ last)·H.
// Whole groups of 32 blocks take the registers; what is left, under 32
// blocks with a partial one, is one more group loaded 64 bytes at a
// time under byte masks (no byte past data+n is read) and multiplied by
// H'^m…H'^1, read from tbl at entry 32-m; its last load may reach up to
// entry 34, which is why the table has zero entries after H'^1.
TEXT ·ghash512(SB), NOSPLIT, $0-40
	MOVQ            tbl+0(FP), DI
	MOVQ            data+8(FP), SI
	MOVQ            n+16(FP), DX
	VBROADCASTI32X4 bswapMask<>(SB), Z15
	VMOVDQU         gcmPoly<>(SB), X14
	VPXOR           X8, X8, X8 // the running hash
	CMPQ            DX, $512
	JB              tail
	VMOVDQU64       (DI), Z16
	VMOVDQU64       64(DI), Z17
	VMOVDQU64       128(DI), Z18
	VMOVDQU64       192(DI), Z19
	VMOVDQU64       256(DI), Z20
	VMOVDQU64       320(DI), Z21
	VMOVDQU64       384(DI), Z22
	VMOVDQU64       448(DI), Z23

group:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVDQU64 256(SI), Z4
	VMOVDQU64 320(SI), Z5
	VMOVDQU64 384(SI), Z6
	VMOVDQU64 448(SI), Z7
	VPSHUFB   Z15, Z0, Z0
	VPSHUFB   Z15, Z1, Z1
	VPSHUFB   Z15, Z2, Z2
	VPSHUFB   Z15, Z3, Z3
	VPSHUFB   Z15, Z4, Z4
	VPSHUFB   Z15, Z5, Z5
	VPSHUFB   Z15, Z6, Z6
	VPSHUFB   Z15, Z7, Z7
	VPXORQ    Z8, Z0, Z0 // X8's upper lanes are zero
	ZEROACC
	MULACC(Z16, Z0)
	MULACC(Z17, Z1)
	MULACC(Z18, Z2)
	MULACC(Z19, Z3)
	MULACC(Z20, Z4)
	MULACC(Z21, Z5)
	MULACC(Z22, Z6)
	MULACC(Z23, Z7)
	FOLD
	ADDQ      $512, SI
	SUBQ      $512, DX
	CMPQ      DX, $512
	JAE       group

tail:
	TESTQ DX, DX
	JZ    lastBlock
	LEAQ  15(DX), R10
	SHRQ  $4, R10
	SHLQ  $4, R10
	NEGQ  R10
	LEAQ  512(DI)(R10*1), R10 // H'^m, m = ceil(n/16)
	ZEROACC
	XORQ  BX, BX

tail64:
	MOVQ       DX, CX
	SUBQ       BX, CX
	MOVQ       $-1, R11
	CMPQ       CX, $64
	JAE        tailLoad
	SHLQ       CX, R11
	NOTQ       R11 // the low CX bits

tailLoad:
	KMOVQ      R11, K1
	VMOVDQU8.Z (SI)(BX*1), K1, Z0
	VPSHUFB    Z15, Z0, Z0
	VPXORQ     Z8, Z0, Z0
	VPXOR      X8, X8, X8 // only the group's first block takes it
	VMOVDQU64  (R10)(BX*1), Z1
	MULACC(Z1, Z0)
	ADDQ       $64, BX
	CMPQ       BX, DX
	JB         tail64
	FOLD

lastBlock:
	MOVQ    last+24(FP), AX
	VMOVDQU (AX), X0
	VPSHUFB X15, X0, X0
	VPXOR   X8, X0, X0
	VMOVDQU 496(DI), X1
	GFMUL
	VPSHUFB X15, X8, X8
	MOVQ    out+32(FP), AX
	VMOVDQU X8, (AX)
	VZEROUPPER
	RET
