// Vectorized float64 exp/sigmoid/tanh for the FP64 gate loops. The exp core
// is math.Exp's amd64 FMA branch (math/exp_amd64.s, the Shibata/SLEEF
// reduction) lane-wise: the identical operation sequence with identical
// constants, so every lane matches math.Exp bit-for-bit whenever math itself
// takes that branch (useFMA = AVX && FMA, the same condition the callers
// gate on). Requires AVX2 (VPMOVSXDQ/VPADDQ/VPSLLQ on ymm) and FMA.
//
// Each kernel walks 4-lane blocks and returns how many leading elements it
// wrote. It stops before the first block holding a lane outside its fast
// range, and before a tail shorter than 4; the Go caller finishes that block
// with the scalar math functions and calls back in.

#include "textflag.h"

#define BCAST(off, bits) \
	DATA exp64consts<>+off+0(SB)/8, $bits \
	DATA exp64consts<>+off+8(SB)/8, $bits \
	DATA exp64consts<>+off+16(SB)/8, $bits \
	DATA exp64consts<>+off+24(SB)/8, $bits

// Constant block offsets (each a 32-byte 4-lane broadcast).
#define LOG2E 0
#define LN2U 32
#define LN2L 64
#define SIXTEENTH 96
#define C64 128
#define C56 160
#define C48 192
#define C40 224
#define C32 256
#define C24 288
#define HALF 320
#define ONE 352
#define TWO 384
#define BIAS 416
#define LO 448
#define HI 480
#define SIGN 512
#define ABS 544
#define TANHSPLIT 576
#define TANHSAT 608
#define P0 640
#define P1 672
#define P2 704
#define Q0 736
#define Q1 768
#define Q2 800

// The exp constants are math/exp_amd64.s's decimal literals, rounded.
BCAST(LOG2E, 0x3ff71547652b82fe) // 1/ln2
BCAST(LN2U, 0x3fe62e42fefa3000) // upper half of ln2
BCAST(LN2L, 0x3d53de6af278ece6) // lower half of ln2
BCAST(SIXTEENTH, 0x3fb0000000000000) // 0.0625
BCAST(C64, 0x3efa01a01a01a01a) // 1/8!
BCAST(C56, 0x3f2a01a01a01a01a) // 1/7!
BCAST(C48, 0x3f56c16c16c16c17) // 1/6!
BCAST(C40, 0x3f81111111111111) // 1/5!
BCAST(C32, 0x3fa5555555555555) // 1/4!
BCAST(C24, 0x3fc5555555555555) // 1/3!
BCAST(HALF, 0x3fe0000000000000)
BCAST(ONE, 0x3ff0000000000000)
BCAST(TWO, 0x4000000000000000)
BCAST(BIAS, 0x00000000000003ff) // int64 exponent bias
// Fast range [-708, 709]: k = round(x/ln2) stays inside [-1021, 1023], so
// math's ldexp step takes neither its overflow nor its denormal branch.
BCAST(LO, 0xc086200000000000) // -708
BCAST(HI, 0x4086280000000000) // 709
BCAST(SIGN, 0x8000000000000000)
BCAST(ABS, 0x7fffffffffffffff)
// math.tanh's branch points and rational-approximation coefficients.
BCAST(TANHSPLIT, 0x3fe4000000000000) // 0.625
BCAST(TANHSAT, 0x404601e678fc457b) // 0.5*MAXLOG
BCAST(P0, 0xbfeedc5baafd6f4b)
BCAST(P1, 0xc058d26a0e26682d)
BCAST(P2, 0xc0993ac030580563)
BCAST(Q0, 0x405c33f28a581b86)
BCAST(Q1, 0x40a176fa0e5535fa)
BCAST(Q2, 0x40b2ec102442040c)
GLOBL exp64consts<>(SB), RODATA|NOPTR, $832

// INRANGE jumps to `out` unless every lane of reg lies in [LO, HI]. The
// ordered compares are false for NaN, so NaN lanes leave too. Clobbers Y1, Y2,
// AX.
#define INRANGE(reg, out) \
	VCMPPD $0x1d, exp64consts<>+LO(SB), reg, Y2 \
	VCMPPD $0x12, exp64consts<>+HI(SB), reg, Y1 \
	VANDPD Y1, Y2, Y2 \
	VMOVMSKPD Y2, AX \
	CMPL AX, $15 \
	JNE out

// EXP64: Y0 = math.Exp(Y0) lane-wise, for lanes already in [LO, HI].
// Step for step the avxfma branch of math.archExp: k = round-to-nearest-even
// of x*log2e, two fused Cody-Waite subtractions, the 1/16 argument scaling,
// the fused Horner Taylor series, four squarings of (1+r) as r*(r+2), and
// the 2^k rebuild through the exponent field. Clobbers Y1, Y3.
#define EXP64 \
	VMULPD exp64consts<>+LOG2E(SB), Y0, Y1 \
	VCVTPD2DQY Y1, X3 \
	VCVTDQ2PD X3, Y1 \
	VFNMADD231PD exp64consts<>+LN2U(SB), Y1, Y0 \
	VFNMADD231PD exp64consts<>+LN2L(SB), Y1, Y0 \
	VMULPD exp64consts<>+SIXTEENTH(SB), Y0, Y0 \
	VMOVUPD exp64consts<>+C64(SB), Y1 \
	VFMADD213PD exp64consts<>+C56(SB), Y0, Y1 \
	VFMADD213PD exp64consts<>+C48(SB), Y0, Y1 \
	VFMADD213PD exp64consts<>+C40(SB), Y0, Y1 \
	VFMADD213PD exp64consts<>+C32(SB), Y0, Y1 \
	VFMADD213PD exp64consts<>+C24(SB), Y0, Y1 \
	VFMADD213PD exp64consts<>+HALF(SB), Y0, Y1 \
	VFMADD213PD exp64consts<>+ONE(SB), Y0, Y1 \
	VMULPD Y1, Y0, Y0 \
	VADDPD exp64consts<>+TWO(SB), Y0, Y1 \
	VMULPD Y1, Y0, Y0 \
	VADDPD exp64consts<>+TWO(SB), Y0, Y1 \
	VMULPD Y1, Y0, Y0 \
	VADDPD exp64consts<>+TWO(SB), Y0, Y1 \
	VMULPD Y1, Y0, Y0 \
	VADDPD exp64consts<>+TWO(SB), Y0, Y1 \
	VFMADD213PD exp64consts<>+ONE(SB), Y1, Y0 \
	VPMOVSXDQ X3, Y1 \
	VPADDQ exp64consts<>+BIAS(SB), Y1, Y1 \
	VPSLLQ $52, Y1, Y1 \
	VMULPD Y1, Y0, Y0

// func cpuHasFMA() bool
TEXT ·cpuHasFMA(SB), NOSPLIT, $0-1
	MOVQ BX, R15 // CPUID clobbers BX
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVQ R15, BX
	SHRL $12, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// func expVec64(dst, src *float64, n int) int
// dst[i] = math.Exp(src[i]).
TEXT ·expVec64(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ BX, BX
exploop:
	LEAQ 4(BX), DX
	CMPQ DX, CX
	JGT  expdone
	VMOVUPD (SI)(BX*8), Y0
	INRANGE(Y0, expdone)
	EXP64
	VMOVUPD Y0, (DI)(BX*8)
	MOVQ DX, BX
	JMP  exploop
expdone:
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET

// func sigmoidVec64(dst, src *float64, n int) int
// dst[i] = 1/(1+math.Exp(-src[i])); the negation is a sign flip, as in Go.
TEXT ·sigmoidVec64(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ BX, BX
sigloop:
	LEAQ 4(BX), DX
	CMPQ DX, CX
	JGT  sigdone
	VMOVUPD (SI)(BX*8), Y0
	VXORPD exp64consts<>+SIGN(SB), Y0, Y0
	INRANGE(Y0, sigdone)
	EXP64
	VADDPD exp64consts<>+ONE(SB), Y0, Y0
	VMOVUPD exp64consts<>+ONE(SB), Y1
	VDIVPD Y0, Y1, Y0
	VMOVUPD Y0, (DI)(BX*8)
	MOVQ DX, BX
	JMP  sigloop
sigdone:
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET

// func tanhVec64(dst, src *float64, n int) int
// dst[i] = math.Tanh(src[i]). Both branches of math.tanh are computed on
// every lane and blended: z = |x| >= 0.625 takes 1 - 2/(exp(2z)+1) with x's
// sign, z > 0.5*MAXLOG saturates to ±1, x == ±0 returns x, and the rest take
// the rational approximation in math's evaluation order. The exp argument
// is clamped to 2*0.5*MAXLOG so saturated lanes stay in exp's fast range;
// only NaN lanes leave the vector path.
TEXT ·tanhVec64(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ BX, BX
tanhloop:
	LEAQ 4(BX), DX
	CMPQ DX, CX
	JGT  tanhdone
	VMOVUPD (SI)(BX*8), Y6
	VCMPPD $3, Y6, Y6, Y2
	VMOVMSKPD Y2, AX
	TESTL AX, AX
	JNE  tanhdone
	VANDPD exp64consts<>+ABS(SB), Y6, Y7
	VANDPD exp64consts<>+SIGN(SB), Y6, Y5
	// Large branch: 1 - 2/(s+1), s = exp(2z), sign of x restored.
	VMINPD exp64consts<>+TANHSAT(SB), Y7, Y0
	VADDPD Y0, Y0, Y0
	EXP64
	VADDPD exp64consts<>+ONE(SB), Y0, Y0
	VMOVUPD exp64consts<>+TWO(SB), Y1
	VDIVPD Y0, Y1, Y1
	VMOVUPD exp64consts<>+ONE(SB), Y0
	VSUBPD Y1, Y0, Y0
	VXORPD Y5, Y0, Y0
	// Small branch: x + x*s*((P0*s+P1)*s+P2)/(((s+Q0)*s+Q1)*s+Q2), s = x*x.
	VMULPD Y6, Y6, Y2
	VMULPD exp64consts<>+P0(SB), Y2, Y3
	VADDPD exp64consts<>+P1(SB), Y3, Y3
	VMULPD Y2, Y3, Y3
	VADDPD exp64consts<>+P2(SB), Y3, Y3
	VADDPD exp64consts<>+Q0(SB), Y2, Y4
	VMULPD Y2, Y4, Y4
	VADDPD exp64consts<>+Q1(SB), Y4, Y4
	VMULPD Y2, Y4, Y4
	VADDPD exp64consts<>+Q2(SB), Y4, Y4
	VMULPD Y2, Y6, Y2
	VMULPD Y3, Y2, Y2
	VDIVPD Y4, Y2, Y2
	VADDPD Y6, Y2, Y2
	// Select per lane: large, saturated, zero.
	VCMPPD $0x1d, exp64consts<>+TANHSPLIT(SB), Y7, Y1
	VBLENDVPD Y1, Y0, Y2, Y2
	VCMPPD $0x1e, exp64consts<>+TANHSAT(SB), Y7, Y1
	VORPD exp64consts<>+ONE(SB), Y5, Y0
	VBLENDVPD Y1, Y0, Y2, Y2
	VXORPD Y1, Y1, Y1
	VCMPPD $0, Y1, Y6, Y1
	VBLENDVPD Y1, Y6, Y2, Y2
	VMOVUPD Y2, (DI)(BX*8)
	MOVQ DX, BX
	JMP  tanhloop
tanhdone:
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET
