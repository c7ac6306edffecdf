//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// AVX2 force sweeps: four targets in the lanes of each YMM register,
// sources broadcast one at a time in slice order. See sweep_amd64.go for
// the contract; the arithmetic below is the Go loops' (kernel.go),
// operation for operation, and must never be contracted into FMA.
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

// func cpuHasAVX2() bool
//
// AVX2 needs the CPU feature (leaf 7 EBX bit 5), AVX itself and OSXSAVE
// (leaf 1 ECX bits 28 and 27), and an OS that saves the YMM state
// (XCR0 bits 1 and 2).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(3<<27), CX
	CMPL CX, $(3<<27)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JEQ  no
	MOVB $1, ret+0(FP)
no:
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
	DISPLACE
	IDENTITY
	VMULPD Y8, Y8, Y11
	VMULPD Y9, Y9, Y12
	VADDPD Y12, Y11, Y11
	VADDPD Y6, Y11, Y11
	FOLD
	ADDQ   $Particle__size, SI
	DECQ   CX
	JNE    loop

done:
	STORE_LANES
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
