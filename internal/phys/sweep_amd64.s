//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// AVX2 force sweeps: four targets in the lanes of each YMM register,
// sources broadcast one at a time in slice order. See sweep_amd64.go for
// the contract; the arithmetic below is the Go loops' (kernel.go),
// operation for operation, and must never be contracted into FMA. The
// FMAs of the pipelined sweeps contract nothing: they compute the one
// correctly rounded quotient K/a another way (see Stage C).
//
// Register plan, shared by all sweeps:
//
//	Y0 px   Y1 py   Y2 fx   Y3 fy   Y4 target IDs   Y5 identity tally
//	Y6 soft2 (open) / box length (cut)   Y7 K   Y14 soft2 (cut)   Y15 +0
//	Y8..Y13 per-source temporaries
//	DI lanes   SI current source   CX sources left   DX constants (cut)
//
// The pipelined sweeps add Y16..Y19 the quotient's constants, Y20..Y25
// more temporaries, Y26 and Y27 the non-identity count and its ones, Y28
// rc2 (cut), BX the iteration, R8..R11 the ring; the pipelined cutoff
// sweep has the staged sources at R13, their indices in AX, the list of
// survivors at SI and, DX being taken, its block count in R12. Its gate
// runs before the lanes are loaded and has a plan of its own. The
// symmetric sweeps hold -0 in Y29 and their reactions in Y20..Y25, Y28
// and Y30; the cutoff one holds soft2 in Y6, as the open sweeps do, and
// rc2 in Y31.

// VCMPPD predicates: ordered and quiet, so a NaN operand compares false
// exactly as Go's ==, > and < do.
#define EQ_OQ $0x00
#define LT_OQ $0x11
#define GT_OQ $0x1E

// And one unordered: not less than, true of a NaN, as Go's !(x < y) is.
#define NLT_UQ $0x15

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

// A source is named by the memory operands of its x, y and ID: the
// particle at SI, or (the pipelined cutoff sweep) entry AX of the staged
// structure-of-arrays at R13.
#define X_SI  (Particle_Pos+0)(SI)
#define Y_SI  (Particle_Pos+8)(SI)
#define ID_SI Particle_ID(SI)
#define X_AX  cutStage_x(R13)(AX*8)
#define Y_AX  cutStage_y(R13)(AX*8)
#define ID_AX cutStage_id(R13)(AX*4)

// DISPLACE: Y8 = px - s.X, Y9 = py - s.Y.
#define DISPLACE(sx, sy) \
	VBROADCASTSD sx, Y8;     \
	VBROADCASTSD sy, Y9;     \
	VSUBPD       Y8, Y0, Y8; \
	VSUBPD       Y9, Y1, Y9

// IDENTITY: Y10 = all-ones in the lanes whose target carries the
// source's ID (target IDs sit in both halves of their quadword, so the
// doubleword compare fills the lane), tallied into Y5.
#define IDENTITY(sid) \
	VPBROADCASTD sid, Y10;     \
	VPCMPEQD     Y4, Y10, Y10; \
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
	DISPLACE(X_SI, Y_SI);  \
	IDENTITY(ID_SI);       \
	VMULPD Y8, Y8, Y11;    \
	VMULPD Y9, Y9, Y12;    \
	VADDPD Y12, Y11, Y11;  \
	VADDPD Y6, Y11, Y11;   \
	FOLD

// GATE_FOLD is one source of the cutoff sweep after its displacement is
// final: identity and beyond-cutoff lanes keep their accumulator, and
// when that is all four the divider is skipped altogether.
#define GATE_FOLD(sid, next) \
	IDENTITY(sid);                 \
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

// A_SQUARE: stage A from the displacement on. Y8 = dx and Y9 = dy of
// source i go into the slot at R8, and Y11 = dx*dx + dy*dy. A_FINISH:
// r2 = Y11 + soft into the slot.
#define A_SQUARE(i) \
	VMOVUPD Y8, SDX(i)(R8); \
	VMOVUPD Y9, SDY(i)(R8); \
	VMULPD  Y8, Y8, Y11;    \
	VMULPD  Y9, Y9, Y12;    \
	VADDPD  Y12, Y11, Y11

#define A_FINISH(i, soft) \
	VADDPD  soft, Y11, Y11; \
	VMOVUPD Y11, SR2(i)(R8)

// STAGE_A: the displacement and r2 of source i of the block at SI, into
// the slot at R8.
#define STAGE_A(i) \
	VSUBPD.BCST (Particle_Pos+0+i*Particle__size)(SI), Y0, Y8; \
	VSUBPD.BCST (Particle_Pos+8+i*Particle__size)(SI), Y1, Y9; \
	A_SQUARE(i);                                               \
	A_FINISH(i, Y6)

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
	VPADDQ   SA(i)(R10), Y18, Y10; \
	VPCMPUQ  $1, Y19, Y10, K3, K3

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

// Stage D is the add of source i of the block three behind stage A's,
// from the slot at R11. D_IDENTITY: K1 = the lanes whose target is not
// the source itself, which Y26 counts by adding Y27's ones. D_FOLD: the
// add, in the lanes of k.
#define D_IDENTITY(sid) \
	VPBROADCASTD sid, Y10;         \
	VPCMPQ       $4, Y4, Y10, K1;  \
	VPADDQ       Y27, Y26, K1, Y26

#define D_FOLD(i, k) \
	VMOVUPD SW(i)(R11), Y13;      \
	VMULPD  SDX(i)(R11), Y13, Y8; \
	VMULPD  SDY(i)(R11), Y13, Y9; \
	VADDPD  Y8, Y2, k, Y2;        \
	VADDPD  Y9, Y3, k, Y3

#define STAGE_D(i) \
	D_IDENTITY((Particle_ID+i*Particle__size-3*BLK)(SI)); \
	D_FOLD(i, K1)

// STAGE_BC is stages B and C of a pipelined loop's iteration BX over
// blocks blocks, each where its block exists; a block the guard turns
// away leaves for the routine's slow label, which comes back to stageD.
#define STAGE_BC(blocks) \
	LEAQ -1(BX), AX;            \
	CMPQ AX, blocks;            \
	JCC  stageC;                \
	STAGE_B(0);                 \
	STAGE_B(1);                 \
	STAGE_B(2);                 \
	STAGE_B(3);                 \
stageC:                         \
	LEAQ -2(BX), AX;            \
	CMPQ AX, blocks;            \
	JCC  stageD;                \
	Q_RCP(0, Y8);               \
	Q_RCP(1, Y11);              \
	Q_RCP(2, Y20);              \
	Q_RCP(3, Y23);              \
	Q_NEWTON(0, Y8, Y9);        \
	Q_NEWTON(1, Y11, Y12);      \
	Q_NEWTON(2, Y20, Y21);      \
	Q_NEWTON(3, Y23, Y24);      \
	Q_NEWTON(0, Y9, Y8);        \
	Q_NEWTON(1, Y12, Y11);      \
	Q_NEWTON(2, Y21, Y20);      \
	Q_NEWTON(3, Y24, Y23);      \
	Q_NEWTON(0, Y8, Y9);        \
	Q_NEWTON(1, Y11, Y12);      \
	Q_NEWTON(2, Y20, Y21);      \
	Q_NEWTON(3, Y23, Y24);      \
	Q_DIVIDE(0, Y9, Y8, Y10);   \
	Q_DIVIDE(1, Y12, Y11, Y13); \
	Q_DIVIDE(2, Y21, Y20, Y22); \
	Q_DIVIDE(3, Y24, Y23, Y25); \
	KXNORW K3, K3, K3;          \
	Q_GUARD(0, Y9);             \
	Q_GUARD(1, Y12);            \
	Q_GUARD(2, Y21);            \
	Q_GUARD(3, Y24);            \
	KMOVW K3, AX;               \
	CMPL  AX, $15;              \
	JNE   slow

// PIPE_ROTATE ends an iteration: the slots move on a stage.
#define PIPE_ROTATE \
	MOVQ R11, AX;  \
	MOVQ R10, R11; \
	MOVQ R9, R10;  \
	MOVQ R8, R9;   \
	MOVQ AX, R8;   \
	INCQ BX

// PIPE_SETUP readies a pipelined loop: the quotient's constants, the
// non-identity count Y26 and its ones, and a ring of four slots, slot
// bytes apart, in the frame from R8 up.
#define PIPE_SETUP(slot) \
	QUOT_CONSTS;                \
	MOVQ         $1, AX;        \
	VPBROADCASTQ AX, Y27;       \
	VPXORQ       Y26, Y26, Y26; \
	ANDQ         $-64, R8;      \
	LEAQ         (3*slot)(R8), R9;  \
	LEAQ         (2*slot)(R8), R10; \
	LEAQ         (1*slot)(R8), R11; \
	XORQ         BX, BX

// PIPE_TALLY closes a pipelined loop over blocks blocks: Y26 counted,
// per lane, the sources that were not the target itself; the identity
// tally takes the others.
#define PIPE_TALLY(blocks) \
	SHLQ         $2, blocks;    \
	VPBROADCASTQ blocks, Y10;   \
	VPSUBQ       Y26, Y10, Y10; \
	VPADDQ       Y10, Y5, Y5

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
	LEAQ 63(SP), R8
	PIPE_SETUP(SLOT)

iter:
	CMPQ BX, DX
	JCC  stageB
	STAGE_A(0)
	STAGE_A(1)
	STAGE_A(2)
	STAGE_A(3)

stageB:
	STAGE_BC(DX)

stageD:
	LEAQ -3(BX), AX
	CMPQ AX, DX
	JCC  next
	STAGE_D(0)
	STAGE_D(1)
	STAGE_D(2)
	STAGE_D(3)

next:
	PIPE_ROTATE
	ADDQ $BLK, SI
	LEAQ 3(DX), AX
	CMPQ BX, AX
	JLT  iter
	SUBQ $(3*BLK), SI
	PIPE_TALLY(DX)

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

// The symmetric open sweep: the pipelined open sweep over sources that
// are targets too, each of which takes the reaction of the group's four
// lanes. A ring slot holds two vectors more per source, the displacement
// the source's own sweep would compute, s - p: it is not -(p - s) when
// that is a zero.
#define SSLOT   896
#define SDXR(i) (640+32*i)
#define SDYR(i) (768+32*i)

// SELF_A is STAGE_A with the reverse displacement kept as well;
// SELF_DISPLACE is all of it but r2, the sum of squares left in Y11.
#define SELF_DISPLACE(i) \
	VBROADCASTSD (Particle_Pos+0+i*Particle__size)(SI), Y10; \
	VBROADCASTSD (Particle_Pos+8+i*Particle__size)(SI), Y13; \
	VSUBPD       Y10, Y0, Y8;                                \
	VSUBPD       Y13, Y1, Y9;                                \
	VSUBPD       Y0, Y10, Y10;                               \
	VSUBPD       Y1, Y13, Y13;                               \
	VMOVUPD      Y10, SDXR(i)(R8);                           \
	VMOVUPD      Y13, SDYR(i)(R8);                           \
	A_SQUARE(i)

#define SELF_A(i) \
	SELF_DISPLACE(i); \
	A_FINISH(i, Y6)

// Q_SLOW_SELF is Q_SLOW with the reverse displacement cleared in the
// lanes with r2 == 0 as well, whose reaction is the same +0.
#define Q_SLOW_SELF(i) \
	Q_SLOW(i);                       \
	VMOVUPD.Z SDXR(i)(R10), K2, Y8;  \
	VMOVUPD   Y8, SDXR(i)(R10);      \
	VMOVUPD.Z SDYR(i)(R10), K2, Y8;  \
	VMOVUPD   Y8, SDYR(i)(R10)

// SELF_D is STAGE_D, and into rx and ry the reactions of source i, lane
// by lane: w times the reverse displacement, and -0, which adds
// nothing, in the lanes whose target is the source itself. Y29 is -0.
// REACT is that second half, in the lanes of k, from the weight in Y13.
#define REACT(i, k, rx, ry) \
	VMOVAPD Y29, rx;                   \
	VMULPD  SDXR(i)(R11), Y13, k, rx;  \
	VMOVAPD Y29, ry;                   \
	VMULPD  SDYR(i)(R11), Y13, k, ry

#define SELF_D(i, rx, ry) \
	STAGE_D(i); \
	REACT(i, K1, rx, ry)

// REACT2 adds the reactions of two consecutive sources, whose x and y
// are in rx0, ry0 and rx1, ry1, to their accumulators at off(SI): the
// 4×4 transpose turns lane t's reactions into one vector (x, y of the
// first source, x, y of the second), and the vectors are added in lane
// order — each source takes its reactions one target at a time, as its
// own sweep would have added them. Clobbers the four inputs, Y8..Y12.
#define REACT2(rx0, ry0, rx1, ry1, off) \
	VUNPCKLPD    ry0, rx0, Y8;                            \
	VUNPCKHPD    ry0, rx0, Y9;                            \
	VUNPCKLPD    ry1, rx1, Y10;                           \
	VUNPCKHPD    ry1, rx1, Y11;                           \
	VSHUFF64X2   $0, Y10, Y8, rx0;                        \
	VSHUFF64X2   $0, Y11, Y9, ry0;                        \
	VSHUFF64X2   $3, Y10, Y8, rx1;                        \
	VSHUFF64X2   $3, Y11, Y9, ry1;                        \
	VMOVUPD      (off)(SI), X12;                          \
	VINSERTF128  $1, (off+Particle__size)(SI), Y12, Y12;  \
	VADDPD       rx0, Y12, Y12;                           \
	VADDPD       ry0, Y12, Y12;                           \
	VADDPD       rx1, Y12, Y12;                           \
	VADDPD       ry1, Y12, Y12;                           \
	VMOVUPD      X12, (off)(SI);                          \
	VEXTRACTF128 $1, Y12, (off+Particle__size)(SI)

// func sweepRepOpenSelfAVX512(ln *lanes4, src *Particle, n int, kk, soft2 float64)
//
// sweepRepOpenPipeAVX512 over n sources, n a positive multiple of four,
// none of them a target of the lanes, with stage D adding to each source
// the reactions of the four lanes as well. The pipeline runs on any
// number of blocks: a stage skips the iterations its block does not
// exist in.
TEXT ·sweepRepOpenSelfAVX512(SB), 0, $3648-40
	MOVQ ln+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), DX
	LOAD_LANES
	VBROADCASTSD soft2+32(FP), Y6
	VBROADCASTSD kk+24(FP), Y7
	SHRQ $2, DX
	LEAQ 63(SP), R8
	PIPE_SETUP(SSLOT)
	MOVQ         $0x8000000000000000, AX
	VPBROADCASTQ AX, Y29

iter:
	CMPQ BX, DX
	JCC  stageB
	SELF_A(0)
	SELF_A(1)
	SELF_A(2)
	SELF_A(3)

stageB:
	STAGE_BC(DX)

stageD:
	LEAQ -3(BX), AX
	CMPQ AX, DX
	JCC  next
	SELF_D(0, Y20, Y21)
	SELF_D(1, Y22, Y23)
	SELF_D(2, Y24, Y25)
	SELF_D(3, Y28, Y30)
	REACT2(Y20, Y21, Y22, Y23, Particle_Force-3*BLK)
	REACT2(Y24, Y25, Y28, Y30, Particle_Force+2*Particle__size-3*BLK)

next:
	PIPE_ROTATE
	ADDQ $BLK, SI
	LEAQ 3(DX), AX
	CMPQ BX, AX
	JLT  iter
	PIPE_TALLY(DX)
	STORE_LANES
	VZEROUPPER
	RET

slow:
	Q_SLOW_SELF(0)
	Q_SLOW_SELF(1)
	Q_SLOW_SELF(2)
	Q_SLOW_SELF(3)
	JMP stageD

// The symmetric cutoff sweep: the symmetric open sweep with stage D
// masked as the pipelined cutoff sweep's is, for the reactions as well.
// Its slot holds the symmetric open sweep's vectors and d2; r2 takes
// soft2 from Y6, and rc2 sits in Y31.
#define CSSLOT  1024
#define SSD2(i) (896+32*i)

#define SELF_CUT_A(i) \
	SELF_DISPLACE(i);         \
	VMOVUPD Y11, SSD2(i)(R8); \
	A_FINISH(i, Y6)

// SELF_CUT_D is CUT_D for source i of the block three behind SI, and
// REACT in the lanes it adds to: a lane beyond the cutoff, or whose
// target is the source itself, hands the source -0.
#define SELF_CUT_D(i, rx, ry) \
	D_IDENTITY((Particle_ID+i*Particle__size-3*BLK)(SI)); \
	VCMPPD NLT_UQ, SSD2(i)(R11), Y31, K1, K2;             \
	D_FOLD(i, K2);                                        \
	REACT(i, K2, rx, ry)

// func sweepRepCutSelfAVX512(ln *lanes4, src *Particle, n int, c *sweepConsts)
//
// sweepRepOpenSelfAVX512 under the cutoff law: each lane folds, and each
// source takes the reaction of, only the pairs within the cutoff, measured
// plainly: the caller sends a block that needs the wrap to the gated
// sweep instead.
TEXT ·sweepRepCutSelfAVX512(SB), 0, $4160-32
	MOVQ ln+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ c+24(FP), DX
	LOAD_LANES
	VMOVUPD sweepConsts_soft2(DX), Y6
	VMOVUPD sweepConsts_kk(DX), Y7
	VMOVUPD RC2, Y31
	MOVQ n+16(FP), DX
	SHRQ $2, DX
	LEAQ 63(SP), R8
	PIPE_SETUP(CSSLOT)
	MOVQ         $0x8000000000000000, AX
	VPBROADCASTQ AX, Y29

iter:
	CMPQ BX, DX
	JCC  stageB
	SELF_CUT_A(0)
	SELF_CUT_A(1)
	SELF_CUT_A(2)
	SELF_CUT_A(3)

stageB:
	STAGE_BC(DX)

stageD:
	LEAQ -3(BX), AX
	CMPQ AX, DX
	JCC  next
	SELF_CUT_D(0, Y20, Y21)
	SELF_CUT_D(1, Y22, Y23)
	SELF_CUT_D(2, Y24, Y25)
	SELF_CUT_D(3, Y28, Y30)
	REACT2(Y20, Y21, Y22, Y23, Particle_Force-3*BLK)
	REACT2(Y24, Y25, Y28, Y30, Particle_Force+2*Particle__size-3*BLK)

next:
	PIPE_ROTATE
	ADDQ $BLK, SI
	LEAQ 3(DX), AX
	CMPQ BX, AX
	JLT  iter
	PIPE_TALLY(DX)
	STORE_LANES
	VZEROUPPER
	RET

slow:
	Q_SLOW_SELF(0)
	Q_SLOW_SELF(1)
	Q_SLOW_SELF(2)
	Q_SLOW_SELF(3)
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
	DISPLACE(X_SI, Y_SI)
	GATE_FOLD(ID_SI, rnext)
rnext:
	ADDQ $Particle__size, SI
	DECQ CX
	JNE  reflective
	JMP  cutdone

periodic:
	DISPLACE(X_SI, Y_SI)
	WRAP(Y8, HALFX, NHALFX)
	WRAP(Y9, HALFY, NHALFY)
	GATE_FOLD(ID_SI, pnext)
pnext:
	ADDQ $Particle__size, SI
	DECQ CX
	JNE  periodic

cutdone:
	STORE_LANES
	VZEROUPPER
	RET

// The pipelined cutoff sweep. Its slot holds a sixth vector per source,
// d2 = dx*dx + dy*dy, which stage D holds against the cutoff.
#define CSLOT  768
#define SD2(i) (640+32*i)

// The gate tests the eight staged sources from index R9 on — the lanes
// of a 512-bit register — against each of the group's four
// targets with the rounded operations of DISPLACE, WRAP and GATE_FOLD, so
// its verdict on a pair is theirs, bit for bit. K1 starts as all eight
// sources and each target's two compares keep a source only while it
// neither carries the target's ID nor lies within its reach; what is
// left is skipped, the rest of K6's sources — all eight, fewer in the
// last vector — survive: their indices, Y19, are compressed onto the
// list at R12. A survivor has a lane to add to or a lane to tally.
//
//	Z0..Z3 px of target 0..3, Z4..Z7 py, Y8..Y11 ID, Z12 rc2
//	Z13 l, Z14 -l, Z15..Z18 the wrap's thresholds (periodic only)
//	Y19 source indices, Y20 eights, Z21 x, Z22 y, Y23 ID
#define GATE_LOAD \
	VMOVUPD   cutStage_x(R13)(R9*8), Z21;  \
	VMOVUPD   cutStage_y(R13)(R9*8), Z22;  \
	VMOVDQU32 cutStage_id(R13)(R9*4), Y23

#define GATE_ID0(tid) \
	VPCMPD $4, tid, Y23, K1

#define GATE_ID(tid) \
	VPCMPD $4, tid, Y23, K1, K1

#define GATE_SUB(px, py) \
	VSUBPD Z21, px, Z24; \
	VSUBPD Z22, py, Z25

// WRAPK is WRAP with the shifts as merging subtracts.
#define WRAPK(d, half, nhalf, l, negl) \
	VCMPPD GT_OQ, half, d, K5;  \
	VSUBPD l, d, K5, d;         \
	VCMPPD LT_OQ, nhalf, d, K5; \
	VSUBPD negl, d, K5, d

#define GATE_WRAP \
	WRAPK(Z24, Z15, Z16, Z13, Z14); \
	WRAPK(Z25, Z17, Z18, Z13, Z14)

#define GATE_CUT \
	VMULPD Z24, Z24, Z24; \
	VMULPD Z25, Z25, Z25; \
	VADDPD Z25, Z24, Z24; \
	VCMPPD GT_OQ, Z12, Z24, K1, K1

#define GATE_KEEP \
	KANDNW      K6, K1, K1;       \
	KMOVW       K1, AX;           \
	VPCOMPRESSD Y19, K1, Y26;     \
	VMOVDQU32   Y26, (R12);       \
	POPCNTL     AX, AX;           \
	LEAQ        (R12)(AX*4), R12; \
	VPADDD      Y20, Y19, Y19;    \
	ADDQ        $8, R9

// GATE_LAST: fewer than eight sources are left, CX of them.
#define GATE_LAST \
	MOVL  $1, AX; \
	SHLL  CX, AX; \
	DECL  AX;     \
	KMOVW AX, K6

// CUT_A is stage A for the survivor at entry i of the block at SI,
// CUT_A_WRAP the same on a periodic call. Both keep d2 in the slot.
#define CUT_DISPLACE(i) \
	MOVL        (4*i)(SI), AX; \
	VSUBPD.BCST X_AX, Y0, Y8;  \
	VSUBPD.BCST Y_AX, Y1, Y9

#define CUT_SQUARE(i) \
	A_SQUARE(i);             \
	VMOVUPD Y11, SD2(i)(R8); \
	A_FINISH(i, Y14)

#define CUT_A(i) \
	CUT_DISPLACE(i); \
	CUT_SQUARE(i)

#define CUT_A_WRAP(i) \
	CUT_DISPLACE(i);                    \
	WRAPK(Y8, HALFX, NHALFX, Y6, NEGL); \
	WRAPK(Y9, HALFY, NHALFY, Y6, NEGL); \
	CUT_SQUARE(i)

// CUT_D is stage D for entry i of the block three behind SI: the count
// takes the lanes that are not the source itself, the add those of them
// the source reaches, !(d2 > rc2) as rc2 (Y28) not below d2.
#define CUT_D(i) \
	MOVL   (4*i-48)(SI), AX;                 \
	D_IDENTITY(ID_AX);                       \
	VCMPPD NLT_UQ, SD2(i)(R11), Y28, K1, K2; \
	D_FOLD(i, K2)

DATA indices8<>+0(SB)/8, $0x0000000100000000
DATA indices8<>+8(SB)/8, $0x0000000300000002
DATA indices8<>+16(SB)/8, $0x0000000500000004
DATA indices8<>+24(SB)/8, $0x0000000700000006
GLOBL indices8<>(SB), RODATA|NOPTR, $32

// func sweepInRepCutPipeAVX512(ln *lanes4, st *cutStage, n int, c *sweepConsts, periodic bool)
//
// The gate over the n staged sources, then the list of survivors through
// the pipeline of sweepRepOpenPipeAVX512 — stage A loading by index and
// keeping d2, stage D adding within the cutoff only — and, the entries
// past the last whole block or a list of fewer than four blocks, through
// the arithmetic of sweepInRepCutAVX2.
TEXT ·sweepInRepCutPipeAVX512(SB), 0, $3136-33
	MOVQ ln+0(FP), DI
	MOVQ st+8(FP), R13
	MOVQ n+16(FP), CX
	MOVQ c+24(FP), DX

	VBROADCASTSD (lanes4_px+0)(DI), Z0
	VBROADCASTSD (lanes4_px+8)(DI), Z1
	VBROADCASTSD (lanes4_px+16)(DI), Z2
	VBROADCASTSD (lanes4_px+24)(DI), Z3
	VBROADCASTSD (lanes4_py+0)(DI), Z4
	VBROADCASTSD (lanes4_py+8)(DI), Z5
	VBROADCASTSD (lanes4_py+16)(DI), Z6
	VBROADCASTSD (lanes4_py+24)(DI), Z7
	VPBROADCASTD (lanes4_id+0)(DI), Y8
	VPBROADCASTD (lanes4_id+8)(DI), Y9
	VPBROADCASTD (lanes4_id+16)(DI), Y10
	VPBROADCASTD (lanes4_id+24)(DI), Y11
	VBROADCASTSD RC2, Z12
	VMOVDQU32    indices8<>(SB), Y19
	MOVL         $8, AX
	VPBROADCASTD AX, Y20
	MOVL         $0xFF, AX
	KMOVW        AX, K6
	XORQ R9, R9
	LEAQ cutStage_live(R13), R12
	TESTQ CX, CX
	JLE   gated
	CMPB  periodic+32(FP), $0
	JNE   gatewrap

gate:
	CMPQ CX, $8
	JLT  gatelast
gate8:
	GATE_LOAD
	GATE_ID0(Y8)
	GATE_ID(Y9)
	GATE_ID(Y10)
	GATE_ID(Y11)
	GATE_SUB(Z0, Z4)
	GATE_CUT
	GATE_SUB(Z1, Z5)
	GATE_CUT
	GATE_SUB(Z2, Z6)
	GATE_CUT
	GATE_SUB(Z3, Z7)
	GATE_CUT
	GATE_KEEP
	SUBQ $8, CX
	JGT  gate

gated:
	// The list is CX entries long, from SI. The lanes in memory are
	// still as the caller left them, so an empty list ends the call.
	LEAQ cutStage_live(R13), SI
	MOVQ R12, CX
	SUBQ SI, CX
	SHRQ $2, CX
	JEQ  cutout
	LOAD_LANES
	VMOVUPD sweepConsts_l(DX), Y6
	VMOVUPD sweepConsts_kk(DX), Y7
	VMOVUPD sweepConsts_soft2(DX), Y14
	VMOVUPD RC2, Y28
	CMPQ CX, $16
	JLT  tail
	MOVQ CX, R12
	SHRQ $2, R12
	ANDQ $3, CX
	LEAQ 63(SP), R8
	PIPE_SETUP(CSLOT)

iter:
	CMPQ BX, R12
	JCC  stageB
	CMPB periodic+32(FP), $0
	JNE  stageAwrap
	CUT_A(0)
	CUT_A(1)
	CUT_A(2)
	CUT_A(3)

stageB:
	STAGE_BC(R12)

stageD:
	LEAQ -3(BX), AX
	CMPQ AX, R12
	JCC  next
	CUT_D(0)
	CUT_D(1)
	CUT_D(2)
	CUT_D(3)

next:
	PIPE_ROTATE
	ADDQ $16, SI
	LEAQ 3(R12), AX
	CMPQ BX, AX
	JLT  iter
	SUBQ $48, SI
	PIPE_TALLY(R12)

tail:
	TESTQ CX, CX
	JEQ   cutdone

tailloop:
	MOVL (SI), AX
	DISPLACE(X_AX, Y_AX)
	CMPB periodic+32(FP), $0
	JEQ  tailfold
	WRAP(Y8, HALFX, NHALFX)
	WRAP(Y9, HALFY, NHALFY)
tailfold:
	GATE_FOLD(ID_AX, tailnext)
tailnext:
	ADDQ $4, SI
	DECQ CX
	JNE  tailloop

cutdone:
	STORE_LANES
cutout:
	VZEROUPPER
	RET

gatelast:
	GATE_LAST
	JMP gate8

gatewrap:
	VBROADCASTSD sweepConsts_l(DX), Z13
	VBROADCASTSD NEGL, Z14
	VBROADCASTSD HALFX, Z15
	VBROADCASTSD NHALFX, Z16
	VBROADCASTSD HALFY, Z17
	VBROADCASTSD NHALFY, Z18

gatew:
	CMPQ CX, $8
	JLT  gatewlast
gatew8:
	GATE_LOAD
	GATE_ID0(Y8)
	GATE_ID(Y9)
	GATE_ID(Y10)
	GATE_ID(Y11)
	GATE_SUB(Z0, Z4)
	GATE_WRAP
	GATE_CUT
	GATE_SUB(Z1, Z5)
	GATE_WRAP
	GATE_CUT
	GATE_SUB(Z2, Z6)
	GATE_WRAP
	GATE_CUT
	GATE_SUB(Z3, Z7)
	GATE_WRAP
	GATE_CUT
	GATE_KEEP
	SUBQ $8, CX
	JGT  gatew
	JMP  gated

gatewlast:
	GATE_LAST
	JMP gatew8

stageAwrap:
	CUT_A_WRAP(0)
	CUT_A_WRAP(1)
	CUT_A_WRAP(2)
	CUT_A_WRAP(3)
	JMP stageB

slow:
	Q_SLOW(0)
	Q_SLOW(1)
	Q_SLOW(2)
	Q_SLOW(3)
	JMP stageD

// func extentAVX2(ps []Particle, box *[2]vec.Vec2)
//
// The componentwise minimum and maximum of the positions of ps, into
// box[0] and box[1]: VMINPD and VMAXPD over two positions to a register,
// two registers an iteration, so four chains run side by side. MINPD
// hands a NaN on only when it is the second operand, so the lanes that
// met one are kept apart (Y4) and turned to NaN at the end. VMOVQ, not
// MOVQ: a legacy SSE write after the caller's AVX code costs a state
// transition that made this scan four times slower on the reference
// host.
TEXT ·extentAVX2(SB), NOSPLIT, $0-32
	MOVQ ps_base+0(FP), SI
	MOVQ ps_len+8(FP), CX
	MOVQ box+24(FP), DI
	MOVQ         $0x7FF0000000000000, AX
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0
	VMOVAPD      Y0, Y1
	MOVQ         $0xFFF0000000000000, AX
	VMOVQ        AX, X2
	VPBROADCASTQ X2, Y2
	VMOVAPD      Y2, Y3
	VXORPD       Y4, Y4, Y4
	CMPQ CX, $4
	JLT  extone

extfour:
	VMOVUPD     (Particle_Pos+0*Particle__size)(SI), X8
	VINSERTF128 $1, (Particle_Pos+1*Particle__size)(SI), Y8, Y8
	VMOVUPD     (Particle_Pos+2*Particle__size)(SI), X9
	VINSERTF128 $1, (Particle_Pos+3*Particle__size)(SI), Y9, Y9
	VMINPD      Y8, Y0, Y0
	VMAXPD      Y8, Y2, Y2
	VMINPD      Y9, Y1, Y1
	VMAXPD      Y9, Y3, Y3
	VCMPPD      $3, Y8, Y8, Y8
	VCMPPD      $3, Y9, Y9, Y9
	VORPD       Y8, Y4, Y4
	VORPD       Y9, Y4, Y4
	ADDQ        $(4*Particle__size), SI
	SUBQ        $4, CX
	CMPQ        CX, $4
	JGE         extfour

extone:
	TESTQ CX, CX
	JEQ   extdone
	VBROADCASTF128 Particle_Pos(SI), Y8
	VMINPD         Y8, Y0, Y0
	VMAXPD         Y8, Y2, Y2
	VCMPPD         $3, Y8, Y8, Y8
	VORPD          Y8, Y4, Y4
	ADDQ           $Particle__size, SI
	DECQ           CX
	JMP            extone

extdone:
	VMINPD       Y1, Y0, Y0
	VMAXPD       Y3, Y2, Y2
	VEXTRACTF128 $1, Y0, X1
	VEXTRACTF128 $1, Y2, X3
	VEXTRACTF128 $1, Y4, X5
	VMINPD       X1, X0, X0
	VMAXPD       X3, X2, X2
	VORPD        X5, X4, X4
	VORPD        X4, X0, X0
	VORPD        X4, X2, X2
	VMOVUPD      X0, (DI)
	VMOVUPD      X2, 16(DI)
	VZEROUPPER
	RET
