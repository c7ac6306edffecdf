//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// AVX2 force sweeps: four targets in the lanes of each YMM register,
// sources broadcast one at a time in slice order. See sweep_amd64.go for
// the contract; the arithmetic below is the Go loops' (kernel.go),
// operation for operation, and must never be contracted into FMA. The
// FMAs of the pipelined open sweep contract nothing: they compute the
// one correctly rounded quotient K/a another way (see Stage C).
//
// Register plan, shared by both sweeps:
//
//	Y0 px   Y1 py   Y2 fx   Y3 fy   Y4 target IDs   Y5 identity tally
//	Y6 soft2 (open) / box length (cut)   Y7 K   Y14 soft2 (cut)   Y15 +0
//	Y8..Y13 per-source temporaries
//	DI lanes   SI current source   CX sources left   DX constants (cut)

// VCMPPD predicates: ordered and quiet, so a NaN operand compares false
// exactly as Go's ==, > and < do.
#define EQ_OQ $0x00
#define LT_OQ $0x11
#define GT_OQ $0x1E

#define RC2    sweepConsts_rc2(DX)
#define NEGL   sweepConsts_negl(DX)
#define HALFX  sweepConsts_halfX(DX)
#define NHALFX sweepConsts_nhalfX(DX)
#define HALFY  sweepConsts_halfY(DX)
#define NHALFY sweepConsts_nhalfY(DX)

#define LOAD_LANES \
	VMOVUPD lanes4_px(DI), Y0;   \
	VMOVUPD lanes4_py(DI), Y1;   \
	VMOVUPD lanes4_fx(DI), Y2;   \
	VMOVUPD lanes4_fy(DI), Y3;   \
	VMOVDQU lanes4_id(DI), Y4;   \
	VMOVDQU lanes4_same(DI), Y5; \
	VXORPD  Y15, Y15, Y15

#define STORE_LANES \
	VMOVUPD Y2, lanes4_fx(DI);   \
	VMOVUPD Y3, lanes4_fy(DI);   \
	VMOVDQU Y5, lanes4_same(DI)

// GATHER4: y = the float64 at offset off of each of the four particles
// at (SI), lane by lane; x is y's low half and t a scratch X register.
// Scalar loads throughout, so values the caller has just written with
// scalar stores — the last sweep's forces — forward to them.
#define GATHER4(off, x, y, t) \
	VMOVSD      (off+0*Particle__size)(SI), x;    \
	VMOVHPD     (off+1*Particle__size)(SI), x, x; \
	VMOVSD      (off+2*Particle__size)(SI), t;    \
	VMOVHPD     (off+3*Particle__size)(SI), t, t; \
	VINSERTF128 $1, t, y, y

// DISPLACE: Y8 = px - s.X, Y9 = py - s.Y.
#define DISPLACE \
	VBROADCASTSD (Particle_Pos+0)(SI), Y8; \
	VBROADCASTSD (Particle_Pos+8)(SI), Y9; \
	VSUBPD       Y8, Y0, Y8;               \
	VSUBPD       Y9, Y1, Y9

// IDENTITY: Y10 = all-ones in the lanes whose target carries the
// source's ID (target IDs sit in both halves of their quadword, so the
// doubleword compare fills the lane), tallied into Y5.
#define IDENTITY \
	VPBROADCASTD Particle_ID(SI), Y10; \
	VPCMPEQD     Y4, Y10, Y10;         \
	VPSUBQ       Y10, Y5, Y5

// WRAP is minImage1 for a displacement between two in-box positions,
// which is at most one box length: one conditional down-shift, then one
// conditional up-shift. Each subtracts a masked constant, l or -l, so an
// unshifted lane has +0 subtracted and keeps its bits (-0 included) and
// a shifted lane gets exactly d-l or d+l. Clobbers Y12.
#define WRAP(d, half, nhalf) \
	VCMPPD GT_OQ, half, d, Y12;  \
	VANDPD Y6, Y12, Y12;         \
	VSUBPD Y12, d, d;            \
	VCMPPD LT_OQ, nhalf, d, Y12; \
	VANDPD NEGL, Y12, Y12;       \
	VSUBPD Y12, d, d

// FOLD adds the source's force to (Y2, Y3). In: Y8 dx, Y9 dy, Y11 r2,
// Y10 the lanes that keep their accumulator untouched. A lane with
// r2 == 0 adds an exact +0: its weight (Inf or NaN) is cleared by the
// and-not, never multiplied away.
#define FOLD \
	VCMPPD    EQ_OQ, Y15, Y11, Y12; \
	VSQRTPD   Y11, Y13;             \
	VMULPD    Y13, Y11, Y13;        \
	VDIVPD    Y13, Y7, Y13;         \
	VMULPD    Y8, Y13, Y8;          \
	VMULPD    Y9, Y13, Y9;          \
	VANDNPD   Y8, Y12, Y8;          \
	VANDNPD   Y9, Y12, Y9;          \
	VADDPD    Y8, Y2, Y8;           \
	VADDPD    Y9, Y3, Y9;           \
	VBLENDVPD Y10, Y2, Y8, Y2;      \
	VBLENDVPD Y10, Y3, Y9, Y3

// OPEN_ONE is one source of the open sweep, start to finish.
#define OPEN_ONE \
	DISPLACE;              \
	IDENTITY;              \
	VMULPD Y8, Y8, Y11;    \
	VMULPD Y9, Y9, Y12;    \
	VADDPD Y12, Y11, Y11;  \
	VADDPD Y6, Y11, Y11;   \
	FOLD

// GATE_FOLD is one source of the cutoff sweep after its displacement is
// final: identity and beyond-cutoff lanes keep their accumulator, and
// when that is all four the divider is skipped altogether.
#define GATE_FOLD(next) \
	IDENTITY;                      \
	VMULPD    Y8, Y8, Y11;         \
	VMULPD    Y9, Y9, Y12;         \
	VADDPD    Y12, Y11, Y11;       \
	VCMPPD    GT_OQ, RC2, Y11, Y12; \
	VORPD     Y12, Y10, Y10;       \
	VMOVMSKPD Y10, AX;             \
	CMPL      AX, $15;             \
	JEQ       next;                \
	VADDPD    Y14, Y11, Y11;       \
	FOLD

// func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32)
//
// Subleaf 0 of the leaf.
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
//
// The low half of XCR0. Faults unless CPUID reports OSXSAVE.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func gatherLanesAVX2(ln *lanes4, group *Particle)
//
// Fills the position, force and ID lanes from the four particles at
// group and leaves the identity tally alone. The lanes are written as
// whole vectors, which is how the sweeps read them back.
TEXT ·gatherLanesAVX2(SB), NOSPLIT, $0-16
	MOVQ ln+0(FP), DI
	MOVQ group+8(FP), SI
	GATHER4(Particle_Pos+0, X0, Y0, X8)
	GATHER4(Particle_Pos+8, X1, Y1, X9)
	GATHER4(Particle_Force+0, X2, Y2, X10)
	GATHER4(Particle_Force+8, X3, Y3, X11)

	// Each ID into both halves of its quadword (see lanes4.id).
	VPBROADCASTD (Particle_ID+0*Particle__size)(SI), X4
	VPBROADCASTD (Particle_ID+1*Particle__size)(SI), X12
	VPUNPCKLQDQ  X12, X4, X4
	VPBROADCASTD (Particle_ID+2*Particle__size)(SI), X12
	VPBROADCASTD (Particle_ID+3*Particle__size)(SI), X13
	VPUNPCKLQDQ  X13, X12, X12
	VINSERTI128  $1, X12, Y4, Y4

	VMOVUPD Y0, lanes4_px(DI)
	VMOVUPD Y1, lanes4_py(DI)
	VMOVUPD Y2, lanes4_fx(DI)
	VMOVUPD Y3, lanes4_fy(DI)
	VMOVDQU Y4, lanes4_id(DI)
	VZEROUPPER
	RET

// func sweepRepOpenAVX2(ln *lanes4, src *Particle, n int, kk, soft2 float64)
TEXT ·sweepRepOpenAVX2(SB), NOSPLIT, $0-40
	MOVQ ln+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	LOAD_LANES
	VBROADCASTSD soft2+32(FP), Y6
	VBROADCASTSD kk+24(FP), Y7
	TESTQ   CX, CX
	JEQ     done

loop:
	OPEN_ONE
	ADDQ $Particle__size, SI
	DECQ CX
	JNE  loop

done:
	STORE_LANES
	VZEROUPPER
	RET

// The pipelined open sweep. A block is four consecutive sources. A ring
// slot holds, for each source of one block, five vectors of four lanes:
// dx, dy, r2 = dx*dx + dy*dy + soft2, a = r2*sqrt(r2) and w = K/a.
#define BLK    (4*Particle__size)
#define SLOT   640
#define SDX(i) (0+32*i)
#define SDY(i) (128+32*i)
#define SR2(i) (256+32*i)
#define SA(i)  (384+32*i)
#define SW(i)  (512+32*i)

// STAGE_A: the displacement and r2 of source i of the block at SI, into
// the slot at R8.
#define STAGE_A(i) \
	VSUBPD.BCST (Particle_Pos+0+i*Particle__size)(SI), Y0, Y8; \
	VSUBPD.BCST (Particle_Pos+8+i*Particle__size)(SI), Y1, Y9; \
	VMOVUPD     Y8, SDX(i)(R8);                                \
	VMOVUPD     Y9, SDY(i)(R8);                                \
	VMULPD      Y8, Y8, Y11;                                   \
	VMULPD      Y9, Y9, Y12;                                   \
	VADDPD      Y12, Y11, Y11;                                 \
	VADDPD      Y6, Y11, Y11;                                  \
	VMOVUPD     Y11, SR2(i)(R8)

// STAGE_B: a = r2*sqrt(r2) in the slot at R9 — all the divider does.
#define STAGE_B(i) \
	VSQRTPD SR2(i)(R9), Y13;      \
	VMULPD  SR2(i)(R9), Y13, Y13; \
	VMOVUPD Y13, SA(i)(R9)

// Stage C is w = K/a in the slot at R10, on the FMA ports. Q_RCP starts
// y at 14 bits of 1/a and each Q_NEWTON takes y in p to y + y*(1 - a*y)
// in q; from a y within an ulp of 1/a that step returns 1/a correctly
// rounded, unless a's significand is all ones, when it may return the
// power of two just below (Markstein 1990). Q_DIVIDE is q0 = K*y,
// r = K - a*q0, w = q0 + r*y: with y = RN(1/a), w = RN(K/a), the IEEE
// quotient, as long as no intermediate leaves the normal range. Q_GUARD
// clears K3, set before a block, in the lanes that cannot be promised: y a power of two, or a
// outside [2^-511, 2^513) — which with the K the Go side admits keeps y,
// q0, r and w normal; zero, denormal, infinite, NaN and negative a lie
// outside it. A block with a lane cleared goes to Q_SLOW.
//
// Y16 1.0, Y17 the significand mask, Y18 minus the bits of 2^-511, Y19
// the window's width in bit patterns.
#define QUOT_CONSTS \
	MOVQ         $0x3FF0000000000000, AX;  \
	VPBROADCASTQ AX, Y16;                  \
	MOVQ         $0x000FFFFFFFFFFFFF, AX;  \
	VPBROADCASTQ AX, Y17;                  \
	MOVQ         $-0x2000000000000000, AX; \
	VPBROADCASTQ AX, Y18;                  \
	MOVQ         $0x4000000000000000, AX;  \
	VPBROADCASTQ AX, Y19

#define Q_RCP(i, p) \
	VRCP14PD SA(i)(R10), p

#define Q_NEWTON(i, p, q) \
	VMOVUPD      SA(i)(R10), q; \
	VFNMADD213PD Y16, p, q;     \
	VFMADD213PD  p, p, q

#define Q_DIVIDE(i, y, t, w) \
	VMULPD       y, Y7, t;      \
	VMOVUPD      SA(i)(R10), w; \
	VFNMADD213PD Y7, t, w;      \
	VFMADD213PD  t, y, w;       \
	VMOVUPD      w, SW(i)(R10)

#define Q_GUARD(i, y) \
	VPTESTMQ Y17, y, K3, K3;       \
	VPADDQ   SA(i)(R10), Y18, Y14; \
	VPCMPUQ  $1, Y19, Y14, K3, K3

// Q_SLOW is source i of a block the guard turned away: the divider's
// quotient. A block the guard passes has no lane with r2 == 0, so stage
// D does not look for one; here, such a lane — where FOLD clears the
// product, whatever Inf*0 made of it, and adds +0 — gets a +0 weight
// and a +0 displacement, whose product is that +0.
#define NEQ_UQ $0x04
#define Q_SLOW(i) \
	VMOVUPD   SR2(i)(R10), Y9;     \
	VCMPPD    NEQ_UQ, Y15, Y9, K2; \
	VMOVUPD   SA(i)(R10), Y8;      \
	VDIVPD    Y8, Y7, Y8;          \
	VMOVAPD.Z Y8, K2, Y8;          \
	VMOVUPD   Y8, SW(i)(R10);      \
	VMOVUPD.Z SDX(i)(R10), K2, Y8; \
	VMOVUPD   Y8, SDX(i)(R10);     \
	VMOVUPD.Z SDY(i)(R10), K2, Y8; \
	VMOVUPD   Y8, SDY(i)(R10)

// STAGE_D: the add of source i of the block three behind SI, from the
// slot at R11, in the lanes whose target is not the source itself (K1),
// which Y26 counts by adding Y27's ones.
#define STAGE_D(i) \
	VPBROADCASTD (Particle_ID+i*Particle__size-3*BLK)(SI), Y10; \
	VMOVUPD      SW(i)(R11), Y13;                               \
	VPCMPQ       $4, Y4, Y10, K1;                               \
	VPADDQ       Y27, Y26, K1, Y26;                             \
	VMULPD       SDX(i)(R11), Y13, Y8;                          \
	VMULPD       SDY(i)(R11), Y13, Y9;                          \
	VADDPD       Y8, Y2, K1, Y2;                                \
	VADDPD       Y9, Y3, K1, Y3

// func sweepRepOpenPipeAVX512(ln *lanes4, src *Particle, n int, kk, soft2 float64)
//
// Iteration t runs stage A on block t, B on block t-1, C on block t-2
// and D on block t-3, each where that block exists; R8..R11 are the
// stages' slots and rotate. The sources past the last whole block, and
// everything when there are fewer than four blocks, take the loop of
// sweepRepOpenAVX2.
TEXT ·sweepRepOpenPipeAVX512(SB), 0, $2624-40
	MOVQ ln+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	LOAD_LANES
	VBROADCASTSD soft2+32(FP), Y6
	VBROADCASTSD kk+24(FP), Y7
	CMPQ CX, $16
	JLT  tail
	MOVQ CX, DX
	SHRQ $2, DX
	ANDQ $3, CX
	QUOT_CONSTS
	MOVQ         $1, AX
	VPBROADCASTQ AX, Y27
	VPXORQ       Y26, Y26, Y26
	LEAQ 63(SP), R8
	ANDQ $-64, R8
	LEAQ (3*SLOT)(R8), R9
	LEAQ (2*SLOT)(R8), R10
	LEAQ (1*SLOT)(R8), R11
	XORQ BX, BX

iter:
	CMPQ BX, DX
	JCC  stageB
	STAGE_A(0)
	STAGE_A(1)
	STAGE_A(2)
	STAGE_A(3)

stageB:
	LEAQ -1(BX), AX
	CMPQ AX, DX
	JCC  stageC
	STAGE_B(0)
	STAGE_B(1)
	STAGE_B(2)
	STAGE_B(3)

stageC:
	LEAQ -2(BX), AX
	CMPQ AX, DX
	JCC  stageD
	Q_RCP(0, Y8)
	Q_RCP(1, Y11)
	Q_RCP(2, Y20)
	Q_RCP(3, Y23)
	Q_NEWTON(0, Y8, Y9)
	Q_NEWTON(1, Y11, Y12)
	Q_NEWTON(2, Y20, Y21)
	Q_NEWTON(3, Y23, Y24)
	Q_NEWTON(0, Y9, Y8)
	Q_NEWTON(1, Y12, Y11)
	Q_NEWTON(2, Y21, Y20)
	Q_NEWTON(3, Y24, Y23)
	Q_NEWTON(0, Y8, Y9)
	Q_NEWTON(1, Y11, Y12)
	Q_NEWTON(2, Y20, Y21)
	Q_NEWTON(3, Y23, Y24)
	Q_DIVIDE(0, Y9, Y8, Y10)
	Q_DIVIDE(1, Y12, Y11, Y13)
	Q_DIVIDE(2, Y21, Y20, Y22)
	Q_DIVIDE(3, Y24, Y23, Y25)
	KXNORW K3, K3, K3
	Q_GUARD(0, Y9)
	Q_GUARD(1, Y12)
	Q_GUARD(2, Y21)
	Q_GUARD(3, Y24)
	KMOVW K3, AX
	CMPL  AX, $15
	JNE   slow

stageD:
	LEAQ -3(BX), AX
	CMPQ AX, DX
	JCC  next
	STAGE_D(0)
	STAGE_D(1)
	STAGE_D(2)
	STAGE_D(3)

next:
	MOVQ R11, AX
	MOVQ R10, R11
	MOVQ R9, R10
	MOVQ R8, R9
	MOVQ AX, R8
	ADDQ $BLK, SI
	INCQ BX
	LEAQ 3(DX), AX
	CMPQ BX, AX
	JLT  iter
	SUBQ $(3*BLK), SI

	// Y26 counted, per lane, the sources that were not the target
	// itself; the identity tally takes the others.
	SHLQ         $2, DX
	VPBROADCASTQ DX, Y14
	VPSUBQ       Y26, Y14, Y14
	VPADDQ       Y14, Y5, Y5

tail:
	TESTQ CX, CX
	JEQ   pipedone

tailloop:
	OPEN_ONE
	ADDQ $Particle__size, SI
	DECQ CX
	JNE  tailloop

pipedone:
	STORE_LANES
	VZEROUPPER
	RET

slow:
	Q_SLOW(0)
	Q_SLOW(1)
	Q_SLOW(2)
	Q_SLOW(3)
	JMP stageD

// func quotientAVX512(a *[4]float64, kk float64, q *[4]float64) (divider bool)
//
// Stage C on one vector, for the tests: q = kk/a lane by lane, and
// whether the guard sent the vector to the divider.
TEXT ·quotientAVX512(SB), NOSPLIT, $704-25
	MOVQ a+0(FP), SI
	MOVQ q+16(FP), DI
	VBROADCASTSD kk+8(FP), Y7
	VXORPD  Y15, Y15, Y15
	QUOT_CONSTS
	LEAQ    63(SP), R10
	ANDQ    $-64, R10
	VMOVUPD (SI), Y8
	VMOVUPD Y8, SA(0)(R10)
	VMOVUPD Y16, SR2(0)(R10)
	VMOVUPD Y16, SDX(0)(R10)
	VMOVUPD Y16, SDY(0)(R10)
	Q_RCP(0, Y8)
	Q_NEWTON(0, Y8, Y9)
	Q_NEWTON(0, Y9, Y8)
	Q_NEWTON(0, Y8, Y9)
	Q_DIVIDE(0, Y9, Y8, Y10)
	KXNORW K3, K3, K3
	Q_GUARD(0, Y9)
	KMOVW K3, AX
	CMPL  AX, $15
	SETNE divider+24(FP)
	JEQ   quotdone
	Q_SLOW(0)

quotdone:
	VMOVUPD SW(0)(R10), Y8
	VMOVUPD Y8, (DI)
	VZEROUPPER
	RET

// func sweepInRepCutAVX2(ln *lanes4, src *Particle, n int, c *sweepConsts, periodic bool)
TEXT ·sweepInRepCutAVX2(SB), NOSPLIT, $0-33
	MOVQ    ln+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	MOVQ    c+24(FP), DX
	MOVBLZX periodic+32(FP), BX
	LOAD_LANES
	VMOVUPD sweepConsts_l(DX), Y6
	VMOVUPD sweepConsts_kk(DX), Y7
	VMOVUPD sweepConsts_soft2(DX), Y14
	TESTQ   CX, CX
	JEQ     cutdone
	TESTL   BX, BX
	JNE     periodic

reflective:
	DISPLACE
	GATE_FOLD(rnext)
rnext:
	ADDQ $Particle__size, SI
	DECQ CX
	JNE  reflective
	JMP  cutdone

periodic:
	DISPLACE
	WRAP(Y8, HALFX, NHALFX)
	WRAP(Y9, HALFY, NHALFY)
	GATE_FOLD(pnext)
pnext:
	ADDQ $Particle__size, SI
	DECQ CX
	JNE  periodic

cutdone:
	STORE_LANES
	VZEROUPPER
	RET
