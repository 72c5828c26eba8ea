//go:build !purego

#include "textflag.h"

// AES-256 block kernels: 14 rounds, round keys 16 bytes apart, eight
// XMM state registers (X0-X7) and one round-key register (X8). Every
// memory access is an unaligned move, so callers owe no alignment.
// No instruction below branches on, or indexes memory by, key or data
// bytes: AESENC/AESDEC/AESKEYGENASSIST/AESIMC run in constant time.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
//
// XCR0, the state components the OS saves; run it only where CPUID.1
// reports OSXSAVE.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// SPREAD folds x ^= x<<32 ^ x<<64 ^ x<<96, the running XOR of the four
// words of the previous-but-one round key (FIPS-197 5.2).
#define SPREAD(x) \
	MOVO x, X3; \
	PSLLDQ $4, X3; PXOR X3, x; \
	PSLLDQ $4, X3; PXOR X3, x; \
	PSLLDQ $4, X3; PXOR X3, x

// EVEN derives round key 2i from X0 (key 2i-2) and X2 (key 2i-1):
// word 3 of the assist is RotWord(SubWord(w)) ^ rcon.
#define EVEN(rcon) \
	AESKEYGENASSIST rcon, X2, X1; \
	PSHUFD $0xff, X1, X1; \
	SPREAD(X0); PXOR X1, X0; \
	MOVOU X0, (BX); ADDQ $16, BX

// ODD derives round key 2i+1 from X2 (key 2i-1) and X0 (key 2i):
// word 2 of the assist is the plain SubWord(w) of AES-256's extra step.
#define ODD \
	AESKEYGENASSIST $0, X0, X1; \
	PSHUFD $0xaa, X1, X1; \
	SPREAD(X2); PXOR X1, X2; \
	MOVOU X2, (BX); ADDQ $16, BX

// INV writes decryption round key i: AESIMC of encryption key 14-i,
// the equivalent-inverse-cipher order AESDEC expects.
#define INV(i) \
	MOVOU (16*(14-i))(AX), X0; \
	AESIMC X0, X0; \
	MOVOU X0, (16*i)(CX)

// func expandKeyAsm(key *[32]byte, enc, dec *[240]byte)
TEXT ·expandKeyAsm(SB), NOSPLIT, $0-24
	MOVQ  key+0(FP), AX
	MOVQ  enc+8(FP), BX
	MOVQ  dec+16(FP), CX
	MOVOU (AX), X0
	MOVOU 16(AX), X2
	MOVOU X0, (BX)
	MOVOU X2, 16(BX)
	ADDQ  $32, BX
	EVEN($0x01); ODD
	EVEN($0x02); ODD
	EVEN($0x04); ODD
	EVEN($0x08); ODD
	EVEN($0x10); ODD
	EVEN($0x20); ODD
	EVEN($0x40)

	MOVQ  enc+8(FP), AX
	MOVOU 224(AX), X0
	MOVOU X0, (CX)
	INV(1); INV(2); INV(3); INV(4); INV(5); INV(6); INV(7)
	INV(8); INV(9); INV(10); INV(11); INV(12); INV(13)
	MOVOU (AX), X0
	MOVOU X0, 224(CX)
	RET

// ALL8 applies op with the round key in X8 to the eight states.
#define ALL8(op) \
	op X8, X0; op X8, X1; op X8, X2; op X8, X3; \
	op X8, X4; op X8, X5; op X8, X6; op X8, X7

// ROUNDS8 runs the 14 rounds on X0-X7 under the schedule at k, given
// the middle- and last-round instructions.
#define ROUNDS8(k, mid, last) \
	MOVOU (k), X8; ALL8(PXOR); \
	MOVOU 16(k), X8; ALL8(mid); \
	MOVOU 32(k), X8; ALL8(mid); \
	MOVOU 48(k), X8; ALL8(mid); \
	MOVOU 64(k), X8; ALL8(mid); \
	MOVOU 80(k), X8; ALL8(mid); \
	MOVOU 96(k), X8; ALL8(mid); \
	MOVOU 112(k), X8; ALL8(mid); \
	MOVOU 128(k), X8; ALL8(mid); \
	MOVOU 144(k), X8; ALL8(mid); \
	MOVOU 160(k), X8; ALL8(mid); \
	MOVOU 176(k), X8; ALL8(mid); \
	MOVOU 192(k), X8; ALL8(mid); \
	MOVOU 208(k), X8; ALL8(mid); \
	MOVOU 224(k), X8; ALL8(last)

// ROUNDS1 is ROUNDS8 for the single state x.
#define ROUNDS1(k, x, mid, last) \
	MOVOU (k), X8; PXOR X8, x; \
	MOVOU 16(k), X8; mid X8, x; \
	MOVOU 32(k), X8; mid X8, x; \
	MOVOU 48(k), X8; mid X8, x; \
	MOVOU 64(k), X8; mid X8, x; \
	MOVOU 80(k), X8; mid X8, x; \
	MOVOU 96(k), X8; mid X8, x; \
	MOVOU 112(k), X8; mid X8, x; \
	MOVOU 128(k), X8; mid X8, x; \
	MOVOU 144(k), X8; mid X8, x; \
	MOVOU 160(k), X8; mid X8, x; \
	MOVOU 176(k), X8; mid X8, x; \
	MOVOU 192(k), X8; mid X8, x; \
	MOVOU 208(k), X8; mid X8, x; \
	MOVOU 224(k), X8; last X8, x

// func cbcDecAsm(dk *[240]byte, dst, src *byte, n int, iv *[16]byte)
//
// CBC decryption has no chain between blocks — P[j] = D(C[j]) ^ C[j-1]
// — so eight blocks decrypt at once. A length that is not a multiple
// of eight blocks ends with one group laid over the last 128 bytes:
// it recomputes a few plaintext blocks to the same values, which is
// why dst must not overlap src. Under eight blocks run one at a time.
TEXT ·cbcDecAsm(SB), NOSPLIT, $0-40
	MOVQ dk+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), DX
	MOVQ iv+32(FP), BX
	XORQ CX, CX
	CMPQ DX, $128
	JB   dec1

dec8:
	// R8 = the block chained into this group's first: iv, or C[j-1].
	LEAQ  -16(SI)(CX*1), R8
	TESTQ CX, CX
	CMOVQEQ BX, R8
	LEAQ  (SI)(CX*1), R9
	MOVOU (R9), X0
	MOVOU 16(R9), X1
	MOVOU 32(R9), X2
	MOVOU 48(R9), X3
	MOVOU 64(R9), X4
	MOVOU 80(R9), X5
	MOVOU 96(R9), X6
	MOVOU 112(R9), X7
	ROUNDS8(AX, AESDEC, AESDECLAST)
	MOVOU (R8), X9;    PXOR X9, X0
	MOVOU (R9), X9;    PXOR X9, X1
	MOVOU 16(R9), X9;  PXOR X9, X2
	MOVOU 32(R9), X9;  PXOR X9, X3
	MOVOU 48(R9), X9;  PXOR X9, X4
	MOVOU 64(R9), X9;  PXOR X9, X5
	MOVOU 80(R9), X9;  PXOR X9, X6
	MOVOU 96(R9), X9;  PXOR X9, X7
	LEAQ  (DI)(CX*1), R9
	MOVOU X0, (R9)
	MOVOU X1, 16(R9)
	MOVOU X2, 32(R9)
	MOVOU X3, 48(R9)
	MOVOU X4, 64(R9)
	MOVOU X5, 80(R9)
	MOVOU X6, 96(R9)
	MOVOU X7, 112(R9)
	ADDQ  $128, CX
	CMPQ  CX, DX
	JAE   decdone
	LEAQ  128(CX), R9
	CMPQ  R9, DX
	JBE   dec8
	LEAQ  -128(DX), CX // the overlaid last group
	JMP   dec8

dec1:
	CMPQ  CX, DX
	JAE   decdone
	MOVOU (SI)(CX*1), X0
	ROUNDS1(AX, X0, AESDEC, AESDECLAST)
	MOVOU (BX), X9
	PXOR  X9, X0
	MOVOU X0, (DI)(CX*1)
	LEAQ  (SI)(CX*1), BX // this ciphertext block chains into the next
	ADDQ  $16, CX
	JMP   dec1

decdone:
	RET

// func cbcEnc1Asm(ek *[240]byte, dst, src *byte, n int, iv *[16]byte)
//
// One CBC lane: each block waits on the last, so this runs at the
// latency of 14 dependent rounds. dst may equal src.
TEXT ·cbcEnc1Asm(SB), NOSPLIT, $0-40
	MOVQ  ek+0(FP), AX
	MOVQ  dst+8(FP), DI
	MOVQ  src+16(FP), SI
	MOVQ  n+24(FP), DX
	MOVQ  iv+32(FP), BX
	MOVOU (BX), X0
	XORQ  CX, CX

enc1:
	CMPQ  CX, DX
	JAE   enc1done
	MOVOU (SI)(CX*1), X9
	PXOR  X9, X0
	ROUNDS1(AX, X0, AESENC, AESENCLAST)
	MOVOU X0, (DI)(CX*1)
	ADDQ  $16, CX
	JMP   enc1

enc1done:
	RET

// Lane i of cbcEnc8Asm keeps its chain in state register x, its key
// schedule in k, its source pointer at 8i(SP) and its destination
// pointer at 64+8i(SP).
#define LANE_IN(i, x, k) \
	MOVQ (8*i)(SP), SI; \
	MOVOU (SI)(CX*1), X9; PXOR X9, x; \
	MOVOU (k), X8; PXOR X8, x

#define LANE_OUT(i, x) \
	MOVQ (64+8*i)(SP), SI; \
	MOVOU x, (SI)(CX*1)

#define LANES_ROUND(off, op) \
	MOVOU off(R8), X8;  op X8, X0; \
	MOVOU off(R9), X8;  op X8, X1; \
	MOVOU off(R10), X8; op X8, X2; \
	MOVOU off(R11), X8; op X8, X3; \
	MOVOU off(R12), X8; op X8, X4; \
	MOVOU off(R13), X8; op X8, X5; \
	MOVOU off(AX), X8;  op X8, X6; \
	MOVOU off(BX), X8;  op X8, X7

// func cbcEnc8Asm(keys *[8]*[240]byte, dsts, srcs *[8]*byte, ivs *[8][16]byte, n int)
//
// Eight independent CBC lanes of n bytes each, one block of every lane
// per step: the chain inside a lane is serial, but the eight chains
// fill the AES unit's pipeline between them. Lanes may use different
// schedules, so each round key is loaded per lane. A lane's dst may
// equal its src.
TEXT ·cbcEnc8Asm(SB), NOSPLIT, $128-40
	MOVQ srcs+16(FP), DI
	MOVQ 0(DI), SI;  MOVQ SI, 0(SP)
	MOVQ 8(DI), SI;  MOVQ SI, 8(SP)
	MOVQ 16(DI), SI; MOVQ SI, 16(SP)
	MOVQ 24(DI), SI; MOVQ SI, 24(SP)
	MOVQ 32(DI), SI; MOVQ SI, 32(SP)
	MOVQ 40(DI), SI; MOVQ SI, 40(SP)
	MOVQ 48(DI), SI; MOVQ SI, 48(SP)
	MOVQ 56(DI), SI; MOVQ SI, 56(SP)
	MOVQ dsts+8(FP), DI
	MOVQ 0(DI), SI;  MOVQ SI, 64(SP)
	MOVQ 8(DI), SI;  MOVQ SI, 72(SP)
	MOVQ 16(DI), SI; MOVQ SI, 80(SP)
	MOVQ 24(DI), SI; MOVQ SI, 88(SP)
	MOVQ 32(DI), SI; MOVQ SI, 96(SP)
	MOVQ 40(DI), SI; MOVQ SI, 104(SP)
	MOVQ 48(DI), SI; MOVQ SI, 112(SP)
	MOVQ 56(DI), SI; MOVQ SI, 120(SP)
	MOVQ ivs+24(FP), DI
	MOVOU 0(DI), X0
	MOVOU 16(DI), X1
	MOVOU 32(DI), X2
	MOVOU 48(DI), X3
	MOVOU 64(DI), X4
	MOVOU 80(DI), X5
	MOVOU 96(DI), X6
	MOVOU 112(DI), X7
	MOVQ keys+0(FP), DI
	MOVQ 0(DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 24(DI), R11
	MOVQ 32(DI), R12
	MOVQ 40(DI), R13
	MOVQ 48(DI), AX
	MOVQ 56(DI), BX
	MOVQ n+32(FP), DX
	XORQ CX, CX

enc8:
	CMPQ CX, DX
	JAE  enc8done
	LANE_IN(0, X0, R8)
	LANE_IN(1, X1, R9)
	LANE_IN(2, X2, R10)
	LANE_IN(3, X3, R11)
	LANE_IN(4, X4, R12)
	LANE_IN(5, X5, R13)
	LANE_IN(6, X6, AX)
	LANE_IN(7, X7, BX)
	LANES_ROUND(16, AESENC)
	LANES_ROUND(32, AESENC)
	LANES_ROUND(48, AESENC)
	LANES_ROUND(64, AESENC)
	LANES_ROUND(80, AESENC)
	LANES_ROUND(96, AESENC)
	LANES_ROUND(112, AESENC)
	LANES_ROUND(128, AESENC)
	LANES_ROUND(144, AESENC)
	LANES_ROUND(160, AESENC)
	LANES_ROUND(176, AESENC)
	LANES_ROUND(192, AESENC)
	LANES_ROUND(208, AESENC)
	LANES_ROUND(224, AESENCLAST)
	LANE_OUT(0, X0)
	LANE_OUT(1, X1)
	LANE_OUT(2, X2)
	LANE_OUT(3, X3)
	LANE_OUT(4, X4)
	LANE_OUT(5, X5)
	LANE_OUT(6, X6)
	LANE_OUT(7, X7)
	ADDQ $16, CX
	JMP  enc8

enc8done:
	RET

// CTRBLOCK builds the counter block 0^64 ‖ BE64(R8+j) in x.
#define CTRBLOCK(j, x) \
	LEAQ j(R8), R9; BSWAPQ R9; MOVQ R9, x; PSLLDQ $8, x

// func keystreamAsm(ek *[240]byte, dst *byte, blocks int, ctr uint64)
//
// Writes E(ctr), E(ctr+1), … straight into dst: the AES-CTR keystream
// for a 128-bit big-endian counter whose high half is zero. Like
// cbcDecAsm, a block count that is not a multiple of eight ends with a
// group laid over the last 128 bytes (it rewrites the same keystream).
TEXT ·keystreamAsm(SB), NOSPLIT, $0-32
	MOVQ ek+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ blocks+16(FP), DX
	MOVQ ctr+24(FP), BX
	XORQ CX, CX // blocks done
	CMPQ DX, $8
	JB   ks1

ks8:
	LEAQ (BX)(CX*1), R8
	CTRBLOCK(0, X0)
	CTRBLOCK(1, X1)
	CTRBLOCK(2, X2)
	CTRBLOCK(3, X3)
	CTRBLOCK(4, X4)
	CTRBLOCK(5, X5)
	CTRBLOCK(6, X6)
	CTRBLOCK(7, X7)
	ROUNDS8(AX, AESENC, AESENCLAST)
	MOVQ  CX, R9
	SHLQ  $4, R9
	ADDQ  DI, R9
	MOVOU X0, (R9)
	MOVOU X1, 16(R9)
	MOVOU X2, 32(R9)
	MOVOU X3, 48(R9)
	MOVOU X4, 64(R9)
	MOVOU X5, 80(R9)
	MOVOU X6, 96(R9)
	MOVOU X7, 112(R9)
	ADDQ  $8, CX
	CMPQ  CX, DX
	JAE   ksdone
	LEAQ  8(CX), R9
	CMPQ  R9, DX
	JBE   ks8
	LEAQ  -8(DX), CX // the overlaid last group
	JMP   ks8

ks1:
	CMPQ  CX, DX
	JAE   ksdone
	LEAQ  (BX)(CX*1), R8
	CTRBLOCK(0, X0)
	ROUNDS1(AX, X0, AESENC, AESENCLAST)
	MOVQ  CX, R9
	SHLQ  $4, R9
	MOVOU X0, (DI)(R9*1)
	INCQ  CX
	JMP   ks1

ksdone:
	RET
