#include "textflag.h"

// AVX2 kernels for the Gram product, the Householder pass and the Sinkhorn
// passes (see kernels.go). Every vector lane is one output element, and each
// element goes through a separately rounded VMULPD and VADDPD/VSUBPD in the
// order of the scalar Go loops; no kernel fuses a multiply and an add.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func gramTile4x8(d *float64, ldd int, xj, xk *float64, stride, rows int)
//
// For r = 0..rows-1 in order, adds xj[r*stride+i]·xk[r*stride+c] to
// d[i*ldd+c], i < 4, c < 8. The 32 sums stay in Y0–Y7 for the whole walk.
TEXT ·gramTile4x8(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ ldd+8(FP), R8
	SHLQ $3, R8
	MOVQ xj+16(FP), SI
	MOVQ xk+24(FP), DX
	MOVQ stride+32(FP), R9
	SHLQ $3, R9
	MOVQ rows+40(FP), CX
	LEAQ (DI)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (R10), Y2
	VMOVUPD 32(R10), Y3
	VMOVUPD (R11), Y4
	VMOVUPD 32(R11), Y5
	VMOVUPD (R12), Y6
	VMOVUPD 32(R12), Y7
	TESTQ CX, CX
	JEQ tileStore

tileLoop:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VBROADCASTSD (SI), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1
	VBROADCASTSD 8(SI), Y13
	VMULPD Y8, Y13, Y14
	VMULPD Y9, Y13, Y15
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3
	VBROADCASTSD 16(SI), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y4, Y4
	VADDPD Y12, Y5, Y5
	VBROADCASTSD 24(SI), Y13
	VMULPD Y8, Y13, Y14
	VMULPD Y9, Y13, Y15
	VADDPD Y14, Y6, Y6
	VADDPD Y15, Y7, Y7
	ADDQ R9, SI
	ADDQ R9, DX
	DECQ CX
	JNE tileLoop

tileStore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R10)
	VMOVUPD Y3, 32(R10)
	VMOVUPD Y4, (R11)
	VMOVUPD Y5, 32(R11)
	VMOVUPD Y6, (R12)
	VMOVUPD Y7, 32(R12)
	VZEROUPPER
	RET

// func symRank2MulVec(w []float64, stride int, u, q, v, p []float64)
//
// The vector part of SymRank2MulVec over rows 0..len(p)-1 of w (len(p) a
// multiple of 4), four rows at a time. For each row j: w[j][k] -= u[j]·q[k] +
// q[j]·u[k] for k ≤ j; p[j] = (row terms w[j][k]·v[k], k < j, from +0) +
// w[j][j]·v[j]; and w[j][k]·v[j] is added to p[k] for every k < j. Below the
// diagonal block of a group, each lane of Y0–Y3 is one column: the column
// terms of p add the group's four rows in order, and a 4×4 in-register
// transpose of the row-term products lets each lane of Y8 carry one row's
// sum in ascending column order. The 4×4 diagonal block then runs scalar
// ops in the order of the Go loop, each row's sum continuing from its lane.
TEXT ·symRank2MulVec(SB), NOSPLIT, $0-128
	MOVQ w_base+0(FP), DI
	MOVQ stride+24(FP), R9
	SHLQ $3, R9
	MOVQ u_base+32(FP), SI
	MOVQ q_base+56(FP), DX
	MOVQ v_base+80(FP), R8
	MOVQ p_base+104(FP), BX
	MOVQ p_len+112(FP), R13
	XORQ CX, CX
	TESTQ R13, R13
	JEQ fuDone

fuGroup:
	LEAQ (DI)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	VBROADCASTSD (R8)(CX*8), Y9
	VBROADCASTSD 8(R8)(CX*8), Y10
	VBROADCASTSD 16(R8)(CX*8), Y11
	VBROADCASTSD 24(R8)(CX*8), Y12
	VXORPD Y8, Y8, Y8
	XORQ AX, AX
	TESTQ CX, CX
	JEQ fuDiag

fuQuad:
	VMOVUPD (DX)(AX*8), Y4
	VMOVUPD (SI)(AX*8), Y5
	VMOVUPD (R8)(AX*8), Y6
	VMOVUPD (BX)(AX*8), Y7
	VBROADCASTSD (SI)(CX*8), Y13
	VMULPD Y4, Y13, Y13
	VBROADCASTSD (DX)(CX*8), Y14
	VMULPD Y5, Y14, Y14
	VADDPD Y14, Y13, Y13
	VMOVUPD (DI)(AX*8), Y0
	VSUBPD Y13, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	VMULPD Y9, Y0, Y13
	VADDPD Y13, Y7, Y7
	VMULPD Y6, Y0, Y0
	VBROADCASTSD 8(SI)(CX*8), Y13
	VMULPD Y4, Y13, Y13
	VBROADCASTSD 8(DX)(CX*8), Y14
	VMULPD Y5, Y14, Y14
	VADDPD Y14, Y13, Y13
	VMOVUPD (R10)(AX*8), Y1
	VSUBPD Y13, Y1, Y1
	VMOVUPD Y1, (R10)(AX*8)
	VMULPD Y10, Y1, Y13
	VADDPD Y13, Y7, Y7
	VMULPD Y6, Y1, Y1
	VBROADCASTSD 16(SI)(CX*8), Y13
	VMULPD Y4, Y13, Y13
	VBROADCASTSD 16(DX)(CX*8), Y14
	VMULPD Y5, Y14, Y14
	VADDPD Y14, Y13, Y13
	VMOVUPD (R11)(AX*8), Y2
	VSUBPD Y13, Y2, Y2
	VMOVUPD Y2, (R11)(AX*8)
	VMULPD Y11, Y2, Y13
	VADDPD Y13, Y7, Y7
	VMULPD Y6, Y2, Y2
	VBROADCASTSD 24(SI)(CX*8), Y13
	VMULPD Y4, Y13, Y13
	VBROADCASTSD 24(DX)(CX*8), Y14
	VMULPD Y5, Y14, Y14
	VADDPD Y14, Y13, Y13
	VMOVUPD (R12)(AX*8), Y3
	VSUBPD Y13, Y3, Y3
	VMOVUPD Y3, (R12)(AX*8)
	VMULPD Y12, Y3, Y13
	VADDPD Y13, Y7, Y7
	VMULPD Y6, Y3, Y3
	VMOVUPD Y7, (BX)(AX*8)
	VUNPCKLPD Y1, Y0, Y13
	VUNPCKHPD Y1, Y0, Y0
	VUNPCKLPD Y3, Y2, Y14
	VUNPCKHPD Y3, Y2, Y2
	VPERM2F128 $0x20, Y14, Y13, Y1
	VADDPD Y1, Y8, Y8
	VPERM2F128 $0x20, Y2, Y0, Y3
	VADDPD Y3, Y8, Y8
	VPERM2F128 $0x31, Y14, Y13, Y1
	VADDPD Y1, Y8, Y8
	VPERM2F128 $0x31, Y2, Y0, Y3
	VADDPD Y3, Y8, Y8
	ADDQ $4, AX
	CMPQ AX, CX
	JLT fuQuad

fuDiag:
	VMOVUPD Y8, (BX)(CX*8)
	MOVQ DI, R10
	MOVQ CX, R11
	LEAQ 4(CX), R12

fuDiagRow:
	VMOVSD (SI)(R11*8), X9
	VMOVSD (DX)(R11*8), X10
	VMOVSD (R8)(R11*8), X11
	VMOVSD (BX)(R11*8), X8
	MOVQ CX, AX
	CMPQ AX, R11
	JGE fuPivot

fuDiagCol:
	VMULSD (DX)(AX*8), X9, X13
	VMULSD (SI)(AX*8), X10, X14
	VADDSD X14, X13, X13
	VMOVSD (R10)(AX*8), X0
	VSUBSD X13, X0, X0
	VMOVSD X0, (R10)(AX*8)
	VMULSD (R8)(AX*8), X0, X13
	VADDSD X13, X8, X8
	VMULSD X11, X0, X13
	VMOVSD (BX)(AX*8), X14
	VADDSD X13, X14, X14
	VMOVSD X14, (BX)(AX*8)
	INCQ AX
	CMPQ AX, R11
	JLT fuDiagCol

fuPivot:
	VMULSD X10, X9, X13
	VMULSD X9, X10, X14
	VADDSD X14, X13, X13
	VMOVSD (R10)(R11*8), X0
	VSUBSD X13, X0, X0
	VMOVSD X0, (R10)(R11*8)
	VMULSD X11, X0, X13
	VADDSD X13, X8, X8
	VMOVSD X8, (BX)(R11*8)
	ADDQ R9, R10
	INCQ R11
	CMPQ R11, R12
	JLT fuDiagRow

	LEAQ (DI)(R9*4), DI
	ADDQ $4, CX
	CMPQ CX, R13
	JLT fuGroup

fuDone:
	VZEROUPPER
	RET

// func scaleColsRowSums(data []float64, cols int, f, rowSums []float64)
//
// The column pass of a Sinkhorn round over the first len(rowSums) rows of the
// row-major matrix data (len(rowSums) a multiple of 4): for each row i and
// j < cols&^3 in order, v = data[i*cols+j]·f[j] is stored back and added to
// the row's sum, which is left in rowSums[i]. Four rows travel together: the
// four scaled row segments of a 4×4 block are transposed in registers, so
// each lane of Y15 carries one row's sum and adds that row's cells in
// ascending column order.
TEXT ·scaleColsRowSums(SB), NOSPLIT, $0-80
	MOVQ data_base+0(FP), DI
	MOVQ cols+24(FP), R11
	MOVQ R11, R8
	SHLQ $3, R8
	ANDQ $-4, R11
	MOVQ f_base+32(FP), DX
	MOVQ rowSums_base+56(FP), BX
	MOVQ rowSums_len+64(FP), CX
	SHRQ $2, CX
	JEQ csDone

csGroup:
	LEAQ (DI)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R12
	VXORPD Y15, Y15, Y15
	XORQ AX, AX
	CMPQ AX, R11
	JGE csStore

csQuad:
	VMOVUPD (DX)(AX*8), Y4
	VMULPD (DI)(AX*8), Y4, Y0
	VMULPD (R9)(AX*8), Y4, Y1
	VMULPD (R10)(AX*8), Y4, Y2
	VMULPD (R12)(AX*8), Y4, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, (R9)(AX*8)
	VMOVUPD Y2, (R10)(AX*8)
	VMOVUPD Y3, (R12)(AX*8)
	VUNPCKLPD Y1, Y0, Y5
	VUNPCKHPD Y1, Y0, Y6
	VUNPCKLPD Y3, Y2, Y7
	VUNPCKHPD Y3, Y2, Y8
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x20, Y8, Y6, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11
	VPERM2F128 $0x31, Y8, Y6, Y12
	VADDPD Y9, Y15, Y15
	VADDPD Y10, Y15, Y15
	VADDPD Y11, Y15, Y15
	VADDPD Y12, Y15, Y15
	ADDQ $4, AX
	CMPQ AX, R11
	JLT csQuad

csStore:
	VMOVUPD Y15, (BX)
	ADDQ $32, BX
	LEAQ (R12)(R8*1), DI
	DECQ CX
	JNE csGroup

csDone:
	VZEROUPPER
	RET

// func scaleRowsColSums(data []float64, cols int, f, colSums []float64)
//
// The row pass of a Sinkhorn round over the len(f) rows of the row-major
// matrix data: for each row i in order and every j < cols,
// v = data[i*cols+j]·f[i] is stored back and added to colSums[j]. Each lane
// is one column, so every column sum adds its rows in ascending order.
TEXT ·scaleRowsColSums(SB), NOSPLIT, $0-80
	MOVQ data_base+0(FP), DI
	MOVQ cols+24(FP), BX
	MOVQ f_base+32(FP), SI
	MOVQ f_len+40(FP), CX
	MOVQ colSums_base+56(FP), DX
	MOVQ BX, R10
	ANDQ $-16, R10
	MOVQ BX, R11
	ANDQ $-4, R11
	TESTQ CX, CX
	JEQ rsDone

rsRow:
	VBROADCASTSD (SI), Y15
	XORQ AX, AX
	CMPQ AX, R10
	JGE rsQuad

rsBlock:
	VMULPD (DI)(AX*8), Y15, Y0
	VMULPD 32(DI)(AX*8), Y15, Y1
	VMULPD 64(DI)(AX*8), Y15, Y2
	VMULPD 96(DI)(AX*8), Y15, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	VADDPD (DX)(AX*8), Y0, Y4
	VADDPD 32(DX)(AX*8), Y1, Y5
	VADDPD 64(DX)(AX*8), Y2, Y6
	VADDPD 96(DX)(AX*8), Y3, Y7
	VMOVUPD Y4, (DX)(AX*8)
	VMOVUPD Y5, 32(DX)(AX*8)
	VMOVUPD Y6, 64(DX)(AX*8)
	VMOVUPD Y7, 96(DX)(AX*8)
	ADDQ $16, AX
	CMPQ AX, R10
	JLT rsBlock

rsQuad:
	CMPQ AX, R11
	JGE rsTail
	VMULPD (DI)(AX*8), Y15, Y0
	VMOVUPD Y0, (DI)(AX*8)
	VADDPD (DX)(AX*8), Y0, Y4
	VMOVUPD Y4, (DX)(AX*8)
	ADDQ $4, AX
	JMP rsQuad

rsTail:
	CMPQ AX, BX
	JGE rsNext
	VMULSD (DI)(AX*8), X15, X0
	VMOVSD X0, (DI)(AX*8)
	VADDSD (DX)(AX*8), X0, X4
	VMOVSD X4, (DX)(AX*8)
	INCQ AX
	JMP rsTail

rsNext:
	LEAQ (DI)(BX*8), DI
	ADDQ $8, SI
	DECQ CX
	JNE rsRow

rsDone:
	VZEROUPPER
	RET
