#include "textflag.h"

// The murmur3 rounds of SumUint64 for a fixed 8-byte input, on eight
// values per ZMM register. Every multiply is VPMULLQ (AVX512DQ).
// Registers: Z20 seed^8, Z21 hint, Z22 c1, Z23 c2, Z24 and Z25 the
// fmix64 multipliers, Z26 ones.

// fmix64 of every lane of h; t is clobbered.
#define FMIX(h, t) \
	VPSRLQ  $33, h, t; \
	VPXORQ  t, h, h; \
	VPMULLQ Z24, h, h; \
	VPSRLQ  $33, h, t; \
	VPXORQ  t, h, h; \
	VPMULLQ Z25, h, h; \
	VPSRLQ  $33, h, t; \
	VPXORQ  t, h, h

// h1 of the eight values in Z0, left in Z0; Z1–Z3 are clobbered.
#define SUM8 \
	VPMULLQ Z22, Z0, Z0; \
	VPROLQ  $31, Z0, Z0; \
	VPMULLQ Z23, Z0, Z0; \
	VPXORQ  Z20, Z0, Z0; \
	VPADDQ  Z20, Z0, Z0; \
	VPADDQ  Z20, Z0, Z1; \
	FMIX(Z0, Z2); \
	FMIX(Z1, Z3); \
	VPADDQ  Z1, Z0, Z0

// Z20 and Z22–Z25 from the seed in AX.
#define CONSTANTS \
	XORQ         $8, AX; \
	VPBROADCASTQ AX, Z20; \
	MOVQ         $0x87c37b91114253d5, AX; \
	VPBROADCASTQ AX, Z22; \
	MOVQ         $0x4cf5ad432745937f, AX; \
	VPBROADCASTQ AX, Z23; \
	MOVQ         $0xff51afd7ed558ccd, AX; \
	VPBROADCASTQ AX, Z24; \
	MOVQ         $0xc4ceb9fe1a85ec53, AX; \
	VPBROADCASTQ AX, Z25

// func thetaKernel(out *uint64, vs *uint64, n int, seed, hint uint64) int
TEXT ·thetaKernel(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ vs+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ seed+24(FP), AX
	CONSTANTS
	MOVQ hint+32(FP), AX
	VPBROADCASTQ AX, Z21
	MOVQ $1, AX
	VPBROADCASTQ AX, Z26
	XORQ BX, BX // survivors written to out
	XORQ DX, DX // values read from vs

theta_loop:
	CMPQ DX, CX
	JAE  theta_done
	VMOVDQU64 (SI)(DX*8), Z0
	SUM8
	VPSRLQ  $1, Z0, Z0  // fold into [0, 2^63)
	VPMAXUQ Z26, Z0, Z0 // lift 0 to 1
	VPCMPUQ $1, Z21, Z0, K1 // lanes below hint
	ADDQ    $8, DX
	KORTESTB K1, K1
	JZ      theta_loop
	// Survivors pack to the low lanes; a full-width store at out[BX] stays
	// inside out[:DX], since BX never runs ahead of the values read.
	VPCOMPRESSQ Z0, K1, Z1
	VMOVDQU64   Z1, (DI)(BX*8)
	KMOVB       K1, AX
	POPCNTL     AX, AX
	ADDQ        AX, BX
	JMP         theta_loop

theta_done:
	MOVQ BX, ret+40(FP)
	VZEROUPPER
	RET

// func sumKernel(out *uint64, vs *uint64, n int, seed uint64)
TEXT ·sumKernel(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ vs+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ seed+24(FP), AX
	CONSTANTS
	XORQ DX, DX

sum_loop:
	CMPQ DX, CX
	JAE  sum_done
	VMOVDQU64 (SI)(DX*8), Z0
	SUM8
	VMOVDQU64 Z0, (DI)(DX*8)
	ADDQ      $8, DX
	JMP       sum_loop

sum_done:
	VZEROUPPER
	RET

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
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
