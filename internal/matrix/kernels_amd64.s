#include "textflag.h"

// AVX2 kernels for the Gram product and the Householder passes (see
// kernels.go). Every vector lane is one output element, and each element
// goes through a separately rounded VMULPD and VADDPD/VSUBPD in the order of
// the scalar Go loops; no kernel fuses a multiply and an add.

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

// func rowCombination(p []float64, w []float64, stride int, u []float64)
//
// For k = 0..len(u)-1 in order: p[j] += u[k]·w[k*stride+j], j < len(p).
TEXT ·rowCombination(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), BX
	MOVQ w_base+24(FP), SI
	MOVQ stride+48(FP), R9
	SHLQ $3, R9
	MOVQ u_base+56(FP), DX
	MOVQ u_len+64(FP), CX
	MOVQ BX, R10
	ANDQ $-16, R10
	MOVQ BX, R11
	ANDQ $-4, R11
	TESTQ CX, CX
	JEQ rcDone

rcRow:
	VBROADCASTSD (DX), Y15
	XORQ AX, AX
	CMPQ AX, R10
	JGE rcQuad

rcBlock:
	VMULPD (SI)(AX*8), Y15, Y0
	VMULPD 32(SI)(AX*8), Y15, Y1
	VMULPD 64(SI)(AX*8), Y15, Y2
	VMULPD 96(SI)(AX*8), Y15, Y3
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMOVUPD 64(DI)(AX*8), Y6
	VMOVUPD 96(DI)(AX*8), Y7
	VADDPD Y0, Y4, Y4
	VADDPD Y1, Y5, Y5
	VADDPD Y2, Y6, Y6
	VADDPD Y3, Y7, Y7
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMOVUPD Y6, 64(DI)(AX*8)
	VMOVUPD Y7, 96(DI)(AX*8)
	ADDQ $16, AX
	CMPQ AX, R10
	JLT rcBlock

rcQuad:
	CMPQ AX, R11
	JGE rcTail
	VMULPD (SI)(AX*8), Y15, Y0
	VMOVUPD (DI)(AX*8), Y4
	VADDPD Y0, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	JMP rcQuad

rcTail:
	CMPQ AX, BX
	JGE rcNext
	VMULSD (SI)(AX*8), X15, X0
	VMOVSD (DI)(AX*8), X4
	VADDSD X0, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ AX
	JMP rcTail

rcNext:
	ADDQ R9, SI
	ADDQ $8, DX
	DECQ CX
	JNE rcRow

rcDone:
	VZEROUPPER
	RET

// func symRank2(w []float64, stride int, u, q []float64)
//
// For j, k < len(u): w[j*stride+k] -= u[j]·q[k] + q[j]·u[k].
TEXT ·symRank2(SB), NOSPLIT, $0-80
	MOVQ w_base+0(FP), DI
	MOVQ stride+24(FP), R9
	SHLQ $3, R9
	MOVQ u_base+32(FP), SI
	MOVQ u_len+40(FP), BX
	MOVQ q_base+56(FP), DX
	MOVQ BX, R10
	ANDQ $-8, R10
	MOVQ BX, R11
	ANDQ $-4, R11
	XORQ R8, R8
	TESTQ BX, BX
	JEQ r2Done

r2Row:
	VBROADCASTSD (SI)(R8*8), Y14
	VBROADCASTSD (DX)(R8*8), Y15
	XORQ AX, AX
	CMPQ AX, R10
	JGE r2Quad

r2Block:
	VMULPD (DX)(AX*8), Y14, Y0
	VMULPD 32(DX)(AX*8), Y14, Y1
	VMULPD (SI)(AX*8), Y15, Y2
	VMULPD 32(SI)(AX*8), Y15, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VSUBPD Y0, Y4, Y4
	VSUBPD Y1, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, R10
	JLT r2Block

r2Quad:
	CMPQ AX, R11
	JGE r2Tail
	VMULPD (DX)(AX*8), Y14, Y0
	VMULPD (SI)(AX*8), Y15, Y2
	VADDPD Y2, Y0, Y0
	VMOVUPD (DI)(AX*8), Y4
	VSUBPD Y0, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX

r2Tail:
	CMPQ AX, BX
	JGE r2Next
	VMULSD (DX)(AX*8), X14, X0
	VMULSD (SI)(AX*8), X15, X2
	VADDSD X2, X0, X0
	VMOVSD (DI)(AX*8), X4
	VSUBSD X0, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ AX
	JMP r2Tail

r2Next:
	ADDQ R9, DI
	INCQ R8
	CMPQ R8, BX
	JLT r2Row

r2Done:
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
