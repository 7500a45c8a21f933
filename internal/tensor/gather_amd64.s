#include "textflag.h"

// gatherRowsF32 computes rows [lo, hi) of GatherRows for float32 rows of
// 1 to 16 columns. Each output row lives in two YMM accumulators (columns
// 0–7 and 8–15) from +0 across all of its in-neighbours, is multiplied
// once by float32(norm[i]) and stored once; a row with no in-neighbours
// stores +0 and skips the multiply. Lanes at and past cols are masked out
// of every load and store, so a 15-wide row reads and writes exactly its
// own 15 elements. Add and multiply keep the operand order gc emits for
// the Go loop, which decides the payload when two NaNs meet: the sum is
// h + o with the neighbour's row first, the scale o·w with the sum first.
// VCVTSD2SS rounds norm[i] as Go's float32 conversion does. Only
// VEX-encoded instructions appear, and VZEROUPPER ends the kernel.
//
// The kernel stops at the first row whose list bounds are not
// 0 ≤ ptr[i] ≤ ptr[i+1] ≤ nIdx, or that names a neighbour outside
// [0, hRows), before writing it, and returns that row; otherwise it
// returns hi. The caller guarantees lo < hi and that every other element
// it touches is in range.

// gatherLanes holds the lane numbers 0…15; cols > lane gives the masks.
DATA gatherLanes<>+0(SB)/4, $0
DATA gatherLanes<>+4(SB)/4, $1
DATA gatherLanes<>+8(SB)/4, $2
DATA gatherLanes<>+12(SB)/4, $3
DATA gatherLanes<>+16(SB)/4, $4
DATA gatherLanes<>+20(SB)/4, $5
DATA gatherLanes<>+24(SB)/4, $6
DATA gatherLanes<>+28(SB)/4, $7
DATA gatherLanes<>+32(SB)/4, $8
DATA gatherLanes<>+36(SB)/4, $9
DATA gatherLanes<>+40(SB)/4, $10
DATA gatherLanes<>+44(SB)/4, $11
DATA gatherLanes<>+48(SB)/4, $12
DATA gatherLanes<>+52(SB)/4, $13
DATA gatherLanes<>+56(SB)/4, $14
DATA gatherLanes<>+60(SB)/4, $15
GLOBL gatherLanes<>(SB), RODATA|NOPTR, $64

// func gatherRowsF32(ptr, idx *int32, norm *float64, h, out *float32, cols, hRows, nIdx, lo, hi int) int
TEXT ·gatherRowsF32(SB), NOSPLIT, $0-88
	MOVQ ptr+0(FP), SI
	MOVQ idx+8(FP), DX
	MOVQ norm+16(FP), R8
	MOVQ h+24(FP), R9
	MOVQ out+32(FP), DI
	MOVQ cols+40(FP), R10
	MOVQ hRows+48(FP), R11
	MOVQ nIdx+56(FP), R12
	MOVQ lo+64(FP), AX
	MOVQ hi+72(FP), CX

	VMOVD        R10, X13
	VPBROADCASTD X13, Y13
	VMOVDQU      gatherLanes<>+0(SB), Y12
	VPCMPGTD     Y12, Y13, Y14 // columns 0–7 below cols
	VMOVDQU      gatherLanes<>+32(SB), Y12
	VPCMPGTD     Y12, Y13, Y15 // columns 8–15 below cols

	SUBQ  AX, CX           // rows left
	LEAQ  (SI)(AX*4), SI   // &ptr[lo]
	LEAQ  (R8)(AX*8), R8   // &norm[lo]
	SHLQ  $2, R10          // row stride in bytes
	IMULQ R10, AX
	ADDQ  AX, DI           // &out[lo, 0]

row:
	MOVLQSX 0(SI), AX      // k = ptr[i]
	MOVLQSX 4(SI), BX      // end = ptr[i+1]
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	CMPQ    AX, BX
	JEQ     store          // no in-neighbours: +0, no multiply
	JGT     stop
	TESTQ   AX, AX
	JS      stop
	CMPQ    BX, R12
	JHI     stop

edge:
	MOVLQSX    (DX)(AX*4), R13
	CMPQ       R13, R11
	JAE        stop        // unsigned, so a negative index stops too
	IMULQ      R10, R13
	VMASKMOVPS (R9)(R13*1), Y14, Y2
	VMASKMOVPS 32(R9)(R13*1), Y15, Y3
	VADDPS     Y0, Y2, Y0  // Y0 = h + o
	VADDPS     Y1, Y3, Y1
	INCQ       AX
	CMPQ       AX, BX
	JLT        edge

	VCVTSD2SS    (R8), X4, X4
	VBROADCASTSS X4, Y4
	VMULPS       Y4, Y0, Y0 // Y0 = o·w
	VMULPS       Y4, Y1, Y1

store:
	VMASKMOVPS Y0, Y14, (DI)
	VMASKMOVPS Y1, Y15, 32(DI)
	ADDQ       $4, SI
	ADDQ       $8, R8
	ADDQ       R10, DI
	DECQ       CX
	JNZ        row

stop:
	MOVQ hi+72(FP), AX
	SUBQ CX, AX
	MOVQ AX, ret+80(FP)
	VZEROUPPER
	RET
