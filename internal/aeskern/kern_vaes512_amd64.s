//go:build !purego

#include "textflag.h"

// The 512-bit tier: the same three primitives as kern_amd64.s on ZMM
// registers, where one VAESENC/VAESDEC runs a round on four AES blocks,
// one per 128-bit lane. It runs only where CPUID and XGETBV report
// AVX512F, AVX512BW and VAES with the OS saving opmask and ZMM state
// (hasVAES512). The bytes are those of the XMM kernels and of
// crypto/cipher. Loop bounds and addresses depend only on public
// lengths and pointers, never on key or data bytes, and every routine
// ends in VZEROUPPER.

// BCAST15 broadcasts the 15 round keys at k into Z17-Z31, one key per
// register in all four lanes.
#define BCAST15(k) \
	VBROADCASTI32X4 (k), Z17; \
	VBROADCASTI32X4 16(k), Z18; \
	VBROADCASTI32X4 32(k), Z19; \
	VBROADCASTI32X4 48(k), Z20; \
	VBROADCASTI32X4 64(k), Z21; \
	VBROADCASTI32X4 80(k), Z22; \
	VBROADCASTI32X4 96(k), Z23; \
	VBROADCASTI32X4 112(k), Z24; \
	VBROADCASTI32X4 128(k), Z25; \
	VBROADCASTI32X4 144(k), Z26; \
	VBROADCASTI32X4 160(k), Z27; \
	VBROADCASTI32X4 176(k), Z28; \
	VBROADCASTI32X4 192(k), Z29; \
	VBROADCASTI32X4 208(k), Z30; \
	VBROADCASTI32X4 224(k), Z31

// ALL8Z applies op with round key z to the eight states Z0-Z7.
#define ALL8Z(op, z) \
	op z, Z0, Z0; op z, Z1, Z1; op z, Z2, Z2; op z, Z3, Z3; \
	op z, Z4, Z4; op z, Z5, Z5; op z, Z6, Z6; op z, Z7, Z7

// ROUNDS32 runs the 14 rounds on the 32 blocks of Z0-Z7 under the
// broadcast schedule in Z17-Z31.
#define ROUNDS32(mid, last) \
	ALL8Z(VPXORQ, Z17); \
	ALL8Z(mid, Z18); ALL8Z(mid, Z19); ALL8Z(mid, Z20); ALL8Z(mid, Z21); \
	ALL8Z(mid, Z22); ALL8Z(mid, Z23); ALL8Z(mid, Z24); ALL8Z(mid, Z25); \
	ALL8Z(mid, Z26); ALL8Z(mid, Z27); ALL8Z(mid, Z28); ALL8Z(mid, Z29); \
	ALL8Z(mid, Z30); ALL8Z(last, Z31)

// func cbcDecVAES512(dk *[240]byte, dst, src *byte, n int, iv *[16]byte)
//
// cbcDecAsm at 32 blocks per group; n is at least 512. The block
// chained into each group's first four is loaded from src-16 under the
// opmask K1, which on the first group leaves lane 0 out (the masked-off
// bytes before src are never read) and keeps the IV broadcast there.
// A length that is not a multiple of 32 blocks ends with one group laid
// over the last 512 bytes, so dst must not overlap src.
TEXT ·cbcDecVAES512(SB), NOSPLIT, $0-40
	MOVQ dk+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), DX
	MOVQ iv+32(FP), BX
	BCAST15(AX)
	VBROADCASTI32X4 (BX), Z8
	MOVL $0xfc, R10
	KMOVW R10, K1
	XORQ CX, CX

dec32:
	LEAQ      (SI)(CX*1), R9
	VMOVDQU64 -16(R9), K1, Z8
	VMOVDQU64 (R9), Z0
	VMOVDQU64 64(R9), Z1
	VMOVDQU64 128(R9), Z2
	VMOVDQU64 192(R9), Z3
	VMOVDQU64 256(R9), Z4
	VMOVDQU64 320(R9), Z5
	VMOVDQU64 384(R9), Z6
	VMOVDQU64 448(R9), Z7
	ROUNDS32(VAESDEC, VAESDECLAST)
	VPXORQ    Z8, Z0, Z0
	VPXORQ    48(R9), Z1, Z1
	VPXORQ    112(R9), Z2, Z2
	VPXORQ    176(R9), Z3, Z3
	VPXORQ    240(R9), Z4, Z4
	VPXORQ    304(R9), Z5, Z5
	VPXORQ    368(R9), Z6, Z6
	VPXORQ    432(R9), Z7, Z7
	LEAQ      (DI)(CX*1), R9
	VMOVDQU64 Z0, (R9)
	VMOVDQU64 Z1, 64(R9)
	VMOVDQU64 Z2, 128(R9)
	VMOVDQU64 Z3, 192(R9)
	VMOVDQU64 Z4, 256(R9)
	VMOVDQU64 Z5, 320(R9)
	VMOVDQU64 Z6, 384(R9)
	VMOVDQU64 Z7, 448(R9)
	KXNORW    K1, K1, K1 // later groups chain from src-16 in every lane
	ADDQ      $512, CX
	CMPQ      CX, DX
	JAE       dec32done
	LEAQ      512(CX), R9
	CMPQ      R9, DX
	JBE       dec32
	LEAQ      -512(DX), CX // the overlaid last group
	JMP       dec32

dec32done:
	VZEROUPPER
	RET

// Counter lanes for keystreamVAES512: qword 2i+1 of ctrLanes is i, and
// ctrSwap byte-reverses the high qword of each lane into bytes 8-15
// while zeroing bytes 0-7 (index bytes with the top bit set).
DATA ctrLanes<>+0(SB)/8, $0
DATA ctrLanes<>+8(SB)/8, $0
DATA ctrLanes<>+16(SB)/8, $0
DATA ctrLanes<>+24(SB)/8, $1
DATA ctrLanes<>+32(SB)/8, $0
DATA ctrLanes<>+40(SB)/8, $2
DATA ctrLanes<>+48(SB)/8, $0
DATA ctrLanes<>+56(SB)/8, $3
GLOBL ctrLanes<>(SB), RODATA|NOPTR, $64

DATA ctrSwap<>+0(SB)/8, $0x8080808080808080
DATA ctrSwap<>+8(SB)/8, $0x08090a0b0c0d0e0f
GLOBL ctrSwap<>(SB), RODATA|NOPTR, $16

// func keystreamVAES512(ek *[240]byte, dst *byte, blocks int, ctr uint64)
//
// keystreamAsm at 32 counter blocks per group; blocks is at least 32.
// Z9 holds the group's first counter in every qword; adding ctrLanes
// and then multiples of four gives the 32 counters, and ctrSwap turns
// each into the block 0^64 ‖ BE64(counter). A count that is not a
// multiple of 32 ends with a group laid over the last 512 bytes.
TEXT ·keystreamVAES512(SB), NOSPLIT, $0-32
	MOVQ            ek+0(FP), AX
	MOVQ            dst+8(FP), DI
	MOVQ            blocks+16(FP), DX
	MOVQ            ctr+24(FP), BX
	BCAST15(AX)
	VMOVDQU64       ctrLanes<>(SB), Z10
	VBROADCASTI32X4 ctrSwap<>(SB), Z12
	MOVQ            $4, R8
	VPBROADCASTQ    R8, Z11
	XORQ            CX, CX // blocks done

ks32:
	LEAQ         (BX)(CX*1), R8
	VPBROADCASTQ R8, Z9
	VPADDQ       Z10, Z9, Z0
	VPADDQ       Z11, Z0, Z1
	VPADDQ       Z11, Z1, Z2
	VPADDQ       Z11, Z2, Z3
	VPADDQ       Z11, Z3, Z4
	VPADDQ       Z11, Z4, Z5
	VPADDQ       Z11, Z5, Z6
	VPADDQ       Z11, Z6, Z7
	ALL8Z(VPSHUFB, Z12)
	ROUNDS32(VAESENC, VAESENCLAST)
	MOVQ         CX, R9
	SHLQ         $4, R9
	ADDQ         DI, R9
	VMOVDQU64    Z0, (R9)
	VMOVDQU64    Z1, 64(R9)
	VMOVDQU64    Z2, 128(R9)
	VMOVDQU64    Z3, 192(R9)
	VMOVDQU64    Z4, 256(R9)
	VMOVDQU64    Z5, 320(R9)
	VMOVDQU64    Z6, 384(R9)
	VMOVDQU64    Z7, 448(R9)
	ADDQ         $32, CX
	CMPQ         CX, DX
	JAE          ks32done
	LEAQ         32(CX), R9
	CMPQ         R9, DX
	JBE          ks32
	LEAQ         -32(DX), CX // the overlaid last group
	JMP          ks32

ks32done:
	VZEROUPPER
	RET

// LANEKEYS4 puts round key off of the schedules at a, b, c and d into
// lanes 0-3 of z.
#define LANEKEYS4(off, z, a, b, c, d) \
	VBROADCASTI32X4 off(a), z; \
	VINSERTI32X4    $1, off(b), z, z; \
	VINSERTI32X4    $2, off(c), z, z; \
	VINSERTI32X4    $3, off(d), z, z

// LANEKEYS fills round key off of lanes 0-3 into za and of lanes 4-7
// into zb, the lanes' schedules at R8-R13, AX and BX.
#define LANEKEYS(off, za, zb) \
	LANEKEYS4(off, za, R8, R9, R10, R11); \
	LANEKEYS4(off, zb, R12, R13, AX, BX)

// GATHER4 loads the step's block of sources s0-s3 into lanes 0-3 of z
// (x is its low lane), 16 bytes from each. A wider masked load would
// keep to the block too, but the core checks its whole 64-byte window
// against the previous step's stores: with page-aligned buffers every
// step then waits on a false store-forwarding match.
#define GATHER4(z, x, s0, s1, s2, s3) \
	VMOVDQU64    (s0)(CX*1), x; \
	VINSERTI32X4 $1, (s1)(CX*1), z, z; \
	VINSERTI32X4 $2, (s2)(CX*1), z, z; \
	VINSERTI32X4 $3, (s3)(CX*1), z, z

// SCATTER4 stores lane i of z to the step's block of destination i,
// whose pointer is at off+8i(SP).
#define SCATTER4(off, x, z) \
	MOVQ          off(SP), SI; \
	VMOVDQU       x, (SI)(CX*1); \
	MOVQ          (off+8)(SP), SI; \
	VEXTRACTI32X4 $1, z, (SI)(CX*1); \
	MOVQ          (off+16)(SP), SI; \
	VEXTRACTI32X4 $2, z, (SI)(CX*1); \
	MOVQ          (off+24)(SP), SI; \
	VEXTRACTI32X4 $3, z, (SI)(CX*1)

#define ENC2(za, zb) \
	VAESENC za, Z0, Z0; VAESENC zb, Z1, Z1

// func cbcEnc8VAES512(keys *[8]*[240]byte, dsts, srcs *[8]*byte, ivs *[8][16]byte, n int)
//
// cbcEnc8Asm on two ZMM chains: lanes 0-3 in Z0, lanes 4-7 in Z1, one
// block of every lane per step. The lanes' round keys are laid side by
// side once per call, rounds 1-14 in Z3-Z16 and Z18-Z31 and the
// whitening keys at 64(SP) and 128(SP); a group under one schedule gets
// the same registers as a broadcast would. Each step XORs its gathered
// sources with the whitening keys off the chain, so a chain waits only
// on one XOR and 14 rounds. A lane's dst may equal its src.
TEXT ·cbcEnc8VAES512(SB), NOSPLIT, $192-40
	MOVQ keys+0(FP), DI
	MOVQ 0(DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 24(DI), R11
	MOVQ 32(DI), R12
	MOVQ 40(DI), R13
	MOVQ 48(DI), AX
	MOVQ 56(DI), BX
	LANEKEYS(0, Z2, Z17)
	VMOVDQU64 Z2, 64(SP)
	VMOVDQU64 Z17, 128(SP)
	LANEKEYS(16, Z3, Z18)
	LANEKEYS(32, Z4, Z19)
	LANEKEYS(48, Z5, Z20)
	LANEKEYS(64, Z6, Z21)
	LANEKEYS(80, Z7, Z22)
	LANEKEYS(96, Z8, Z23)
	LANEKEYS(112, Z9, Z24)
	LANEKEYS(128, Z10, Z25)
	LANEKEYS(144, Z11, Z26)
	LANEKEYS(160, Z12, Z27)
	LANEKEYS(176, Z13, Z28)
	LANEKEYS(192, Z14, Z29)
	LANEKEYS(208, Z15, Z30)
	LANEKEYS(224, Z16, Z31)

	MOVQ dsts+8(FP), DI
	MOVQ 0(DI), SI;  MOVQ SI, 0(SP)
	MOVQ 8(DI), SI;  MOVQ SI, 8(SP)
	MOVQ 16(DI), SI; MOVQ SI, 16(SP)
	MOVQ 24(DI), SI; MOVQ SI, 24(SP)
	MOVQ 32(DI), SI; MOVQ SI, 32(SP)
	MOVQ 40(DI), SI; MOVQ SI, 40(SP)
	MOVQ 48(DI), SI; MOVQ SI, 48(SP)
	MOVQ 56(DI), SI; MOVQ SI, 56(SP)
	MOVQ srcs+16(FP), DI
	MOVQ 0(DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 24(DI), R11
	MOVQ 32(DI), R12
	MOVQ 40(DI), R13
	MOVQ 48(DI), AX
	MOVQ 56(DI), BX
	MOVQ ivs+24(FP), DI
	VMOVDQU64 (DI), Z0
	VMOVDQU64 64(DI), Z1
	MOVQ n+32(FP), DX
	XORQ CX, CX

enc8:
	CMPQ      CX, DX
	JAE       enc8done
	GATHER4(Z2, X2, R8, R9, R10, R11)
	GATHER4(Z17, X17, R12, R13, AX, BX)
	VPXORQ    64(SP), Z2, Z2
	VPXORQ    128(SP), Z17, Z17
	VPXORQ    Z2, Z0, Z0
	VPXORQ    Z17, Z1, Z1
	ENC2(Z3, Z18)
	ENC2(Z4, Z19)
	ENC2(Z5, Z20)
	ENC2(Z6, Z21)
	ENC2(Z7, Z22)
	ENC2(Z8, Z23)
	ENC2(Z9, Z24)
	ENC2(Z10, Z25)
	ENC2(Z11, Z26)
	ENC2(Z12, Z27)
	ENC2(Z13, Z28)
	ENC2(Z14, Z29)
	ENC2(Z15, Z30)
	VAESENCLAST Z16, Z0, Z0
	VAESENCLAST Z31, Z1, Z1
	SCATTER4(0, X0, Z0)
	SCATTER4(32, X1, Z1)
	ADDQ $16, CX
	JMP  enc8

enc8done:
	VZEROUPPER
	RET

// GATHER4SP is GATHER4 for the four sources whose pointers are at
// off(SP) to off+24(SP).
#define GATHER4SP(off, z, x) \
	MOVQ         off(SP), R8; \
	MOVQ         (off+8)(SP), R9; \
	MOVQ         (off+16)(SP), R10; \
	MOVQ         (off+24)(SP), R11; \
	VMOVDQU64    (R8)(CX*1), x; \
	VINSERTI32X4 $1, (R9)(CX*1), z, z; \
	VINSERTI32X4 $2, (R10)(CX*1), z, z; \
	VINSERTI32X4 $3, (R11)(CX*1), z, z

#define ROUND2(op, k, a, b) \
	op k, a, a; op k, b, b

// CHAIN2 runs one CBC step on the chains a and b: the gathered sources
// in sa and sb, already whitened, are folded in and the 13 middle
// rounds and the last one run under the broadcast schedule. CHAIN4 is
// the same on Z0-Z3 with the sources in Z4-Z7.
#define CHAIN2(a, b, sa, sb) \
	VPXORQ sa, a, a; VPXORQ sb, b, b; \
	ROUND2(VAESENC, Z18, a, b); ROUND2(VAESENC, Z19, a, b); \
	ROUND2(VAESENC, Z20, a, b); ROUND2(VAESENC, Z21, a, b); \
	ROUND2(VAESENC, Z22, a, b); ROUND2(VAESENC, Z23, a, b); \
	ROUND2(VAESENC, Z24, a, b); ROUND2(VAESENC, Z25, a, b); \
	ROUND2(VAESENC, Z26, a, b); ROUND2(VAESENC, Z27, a, b); \
	ROUND2(VAESENC, Z28, a, b); ROUND2(VAESENC, Z29, a, b); \
	ROUND2(VAESENC, Z30, a, b); ROUND2(VAESENCLAST, Z31, a, b)

#define ROUND4(op, k) \
	op k, Z0, Z0; op k, Z1, Z1; op k, Z2, Z2; op k, Z3, Z3

#define CHAIN4 \
	VPXORQ Z4, Z0, Z0; VPXORQ Z5, Z1, Z1; VPXORQ Z6, Z2, Z2; VPXORQ Z7, Z3, Z3; \
	ROUND4(VAESENC, Z18); ROUND4(VAESENC, Z19); ROUND4(VAESENC, Z20); \
	ROUND4(VAESENC, Z21); ROUND4(VAESENC, Z22); ROUND4(VAESENC, Z23); \
	ROUND4(VAESENC, Z24); ROUND4(VAESENC, Z25); ROUND4(VAESENC, Z26); \
	ROUND4(VAESENC, Z27); ROUND4(VAESENC, Z28); ROUND4(VAESENC, Z29); \
	ROUND4(VAESENC, Z30); ROUND4(VAESENCLAST, Z31)

// func cbcEnc16VAES512(ek *[240]byte, dsts, srcs *[16]*byte, ivs *[16][16]byte, n int)
//
// Sixteen lanes under one schedule, broadcast into Z17-Z31, on four ZMM
// chains: lanes 0-3 in Z0, 4-7 in Z1, 8-11 in Z2 and 12-15 in Z3. The
// chains are bound by the rounds' latency, so a step of four costs
// little more than a step of two. Lanes 8-15 run 512 bytes (32 steps) behind lanes
// 0-7: buffers 4 KiB apart share their low 12 address bits, and sixteen
// destinations at one offset would fall in one L1 set. Their pointers
// are kept 512 bytes low, so one offset CX addresses both halves: for
// the first 512 bytes only lanes 0-7 step, then all sixteen until CX
// reaches n, then lanes 8-15 alone for their last 512 bytes. n is at
// least 512. The frame holds the destination pointers at 0-120(SP) and
// the source pointers at 128-248(SP). A lane's dst may equal its src.
TEXT ·cbcEnc16VAES512(SB), NOSPLIT, $256-40
	MOVQ ek+0(FP), AX
	BCAST15(AX)
	MOVQ dsts+8(FP), DI
	MOVQ srcs+16(FP), SI
	XORQ BX, BX

lanes16:
	MOVQ  (DI)(BX*8), R8
	MOVQ  (SI)(BX*8), R9
	CMPQ  BX, $8
	JB    lead16ptr
	SUBQ  $512, R8
	SUBQ  $512, R9

lead16ptr:
	MOVQ  R8, 0(SP)(BX*8)
	MOVQ  R9, 128(SP)(BX*8)
	INCQ  BX
	CMPQ  BX, $16
	JB    lanes16

	MOVQ      ivs+24(FP), DI
	VMOVDQU64 (DI), Z0
	VMOVDQU64 64(DI), Z1
	VMOVDQU64 128(DI), Z2
	VMOVDQU64 192(DI), Z3
	MOVQ      n+32(FP), DX
	LEAQ      512(DX), BX
	XORQ      CX, CX

lead16:
	GATHER4SP(128, Z4, X4)
	GATHER4SP(160, Z5, X5)
	VPXORQ    Z17, Z4, Z4
	VPXORQ    Z17, Z5, Z5
	CHAIN2(Z0, Z1, Z4, Z5)
	SCATTER4(0, X0, Z0)
	SCATTER4(32, X1, Z1)
	ADDQ      $16, CX
	CMPQ      CX, $512
	JB        lead16

both16:
	CMPQ      CX, DX
	JAE       trail16
	GATHER4SP(128, Z4, X4)
	GATHER4SP(160, Z5, X5)
	GATHER4SP(192, Z6, X6)
	GATHER4SP(224, Z7, X7)
	VPXORQ    Z17, Z4, Z4
	VPXORQ    Z17, Z5, Z5
	VPXORQ    Z17, Z6, Z6
	VPXORQ    Z17, Z7, Z7
	CHAIN4
	SCATTER4(0, X0, Z0)
	SCATTER4(32, X1, Z1)
	SCATTER4(64, X2, Z2)
	SCATTER4(96, X3, Z3)
	ADDQ      $16, CX
	JMP       both16

trail16:
	GATHER4SP(192, Z6, X6)
	GATHER4SP(224, Z7, X7)
	VPXORQ    Z17, Z6, Z6
	VPXORQ    Z17, Z7, Z7
	CHAIN2(Z2, Z3, Z6, Z7)
	SCATTER4(64, X2, Z2)
	SCATTER4(96, X3, Z3)
	ADDQ      $16, CX
	CMPQ      CX, BX
	JB        trail16

	VZEROUPPER
	RET
