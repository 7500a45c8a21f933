#include "textflag.h"

// The row kernels compute out[i, j] = out[i, j] + a[i, k]·b[k, j] for k
// ascending, over `rows` rows and the first n&^15 columns, sixteen
// columns per pass held in YMM accumulators and stored once. a[i, k] sits
// at a + i·ra + k·ka elements: the forward product passes (ka, ra) =
// (1, kk), a row-major a; the weight gradient xᵀ·dy passes (m, 1), so
// output row i walks column i of the m-wide x down k and no operand is
// ever transposed. b and out are row-major with row stride n. A ±0 a[i, k]
// adds no term; a NaN one does (VUCOMIS sets PF on an unordered compare,
// so JPC skips only an ordered zero).
// Multiply and add stay separate instructions, never an FMA, so every
// element rounds exactly as the Go loop's o += a*b. Their operands sit in
// the order gc emits for that loop, which decides the payload when two
// NaNs meet: the product is b·a with b as the first source, the sum
// (b·a) + o with the product first. Only VEX-encoded instructions appear,
// and VZEROUPPER ends each kernel: one legacy-SSE instruction beside dirty
// upper YMM halves costs a state transition on every iteration. The
// caller guarantees rows ≥ 1, kk ≥ 1 and n ≥ 16, so every loop runs at
// least once.

// func matmulRowsF64(a, b, out *float64, kk, n, rows, ka, ra int)
TEXT ·matmulRowsF64(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ out+16(FP), DI
	MOVQ n+32(FP), R8
	MOVQ rows+40(FP), R9
	MOVQ ka+48(FP), R12
	MOVQ ra+56(FP), R13
	SHLQ $3, R12           // a's k stride in bytes
	SHLQ $3, R13           // a's row stride in bytes
	SHLQ $3, R8            // b and out row stride in bytes
	MOVQ R8, R10
	ANDQ $-128, R10        // bytes of the sixteen-column blocks
	VXORPD X15, X15, X15

row64:
	XORQ R11, R11          // column block offset in bytes

block64:
	VMOVUPD 0(DI)(R11*1), Y0
	VMOVUPD 32(DI)(R11*1), Y1
	VMOVUPD 64(DI)(R11*1), Y2
	VMOVUPD 96(DI)(R11*1), Y3
	LEAQ    (DX)(R11*1), BX // &b[k, j]
	MOVQ    SI, CX          // &a[i, k]
	MOVQ    kk+24(FP), AX   // k terms left

k64:
	VMOVSD   (CX), X4
	VUCOMISD X15, X4
	JNE      term64
	JPC      next64           // equal and ordered: a is ±0

term64:
	VBROADCASTSD X4, Y4
	VMOVUPD      0(BX), Y5
	VMOVUPD      32(BX), Y6
	VMOVUPD      64(BX), Y7
	VMOVUPD      96(BX), Y8
	VMULPD       Y4, Y5, Y5 // Y5 = b·a
	VMULPD       Y4, Y6, Y6
	VMULPD       Y4, Y7, Y7
	VMULPD       Y4, Y8, Y8
	VADDPD       Y0, Y5, Y0 // Y0 = Y5 + o
	VADDPD       Y1, Y6, Y1
	VADDPD       Y2, Y7, Y2
	VADDPD       Y3, Y8, Y3

next64:
	ADDQ R8, BX
	ADDQ R12, CX
	DECQ AX
	JNZ  k64

	VMOVUPD Y0, 0(DI)(R11*1)
	VMOVUPD Y1, 32(DI)(R11*1)
	VMOVUPD Y2, 64(DI)(R11*1)
	VMOVUPD Y3, 96(DI)(R11*1)
	ADDQ    $128, R11
	CMPQ    R11, R10
	JLT     block64

	ADDQ R13, SI
	ADDQ R8, DI
	DECQ R9
	JNZ  row64
	VZEROUPPER
	RET

// func matmulRowsF32(a, b, out *float32, kk, n, rows, ka, ra int)
TEXT ·matmulRowsF32(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ out+16(FP), DI
	MOVQ n+32(FP), R8
	MOVQ rows+40(FP), R9
	MOVQ ka+48(FP), R12
	MOVQ ra+56(FP), R13
	SHLQ $2, R12
	SHLQ $2, R13
	SHLQ $2, R8            // b and out row stride in bytes
	MOVQ R8, R10
	ANDQ $-64, R10         // bytes of the sixteen-column blocks
	VXORPS X15, X15, X15

row32:
	XORQ R11, R11

block32:
	VMOVUPS 0(DI)(R11*1), Y0
	VMOVUPS 32(DI)(R11*1), Y1
	LEAQ    (DX)(R11*1), BX
	MOVQ    SI, CX
	MOVQ    kk+24(FP), AX

k32:
	VMOVSS   (CX), X4
	VUCOMISS X15, X4
	JNE      term32
	JPC      next32           // equal and ordered: a is ±0

term32:
	VBROADCASTSS X4, Y4
	VMOVUPS      0(BX), Y5
	VMOVUPS      32(BX), Y6
	VMULPS       Y4, Y5, Y5
	VMULPS       Y4, Y6, Y6
	VADDPS       Y0, Y5, Y0
	VADDPS       Y1, Y6, Y1

next32:
	ADDQ R8, BX
	ADDQ R12, CX
	DECQ AX
	JNZ  k32

	VMOVUPS Y0, 0(DI)(R11*1)
	VMOVUPS Y1, 32(DI)(R11*1)
	ADDQ    $64, R11
	CMPQ    R11, R10
	JLT     block32

	ADDQ R13, SI
	ADDQ R8, DI
	DECQ R9
	JNZ  row32
	VZEROUPPER
	RET

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX  // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV                 // XCR0: the OS saves XMM (bit 1) and YMM (bit 2) state
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $5, BX           // AVX2
	JCC   no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
