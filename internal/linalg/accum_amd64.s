//go:build amd64

#include "textflag.h"

// func accumBlock4(xtx, xty, blk, ys []float64, p int)
//
// Four packed rows' normal-equation update (the contract is documented
// on the declaration and the generic implementation). Every cell
// receives, per row in row order, one multiply and one add, each with
// a single rounding (MULPD/ADDPD, never FMA): prod = row[b]*row[a]
// (row[a]*y for Xᵀy), then cell = cell + prod — the per-row loop's
// operations, so the result is bit-identical to it.
//
// Register layout:
//   R8 = &xtx[0]   R9 = &xty[0]   SI = &blk[0]   DI = &ys[0]
//   R10 = p        CX = d = p-1   R14 = d*8 (row stride)   AX = 3*d*8
//   R11 = a        BX = &blk[a] (row 0; row r at BX + r*stride)
//   X0..X3 = ra of rows 0..3      X8..X11 = ys[0..3]       X7 = 0.0
TEXT ·accumBlock4(SB), NOSPLIT, $0-104
	MOVQ  xtx_base+0(FP), R8
	MOVQ  xty_base+24(FP), R9
	MOVQ  blk_base+48(FP), SI
	MOVQ  ys_base+72(FP), DI
	MOVQ  p+96(FP), R10
	LEAQ  -1(R10), CX
	MOVQ  CX, R14
	SHLQ  $3, R14
	LEAQ  (R14)(R14*2), AX
	MOVSD 0(DI), X8
	MOVSD 8(DI), X9
	MOVSD 16(DI), X10
	MOVSD 24(DI), X11
	XORPS X7, X7
	XORQ  R11, R11

loop_a:
	CMPQ  R11, CX
	JGE   done
	LEAQ  (SI)(R11*8), BX
	MOVSD (BX), X0
	MOVSD (BX)(R14*1), X1
	MOVSD (BX)(R14*2), X2
	MOVSD (BX)(AX*1), X3

	// A line where some row has ra == 0 (either sign) runs row by row.
	// NaN compares unordered (PF set), which JP treats as nonzero.
	UCOMISD X7, X0
	JP      nz0
	JE      rowwise

nz0:
	UCOMISD X7, X1
	JP      nz1
	JE      rowwise

nz1:
	UCOMISD X7, X2
	JP      nz2
	JE      rowwise

nz2:
	UCOMISD X7, X3
	JP      block
	JE      rowwise

block:
	// xty[a] += ra_r * y_r for r = 0..3.
	MOVSD  (R9)(R11*8), X6
	MOVAPD X0, X4
	MULSD  X8, X4
	ADDSD  X4, X6
	MOVAPD X1, X5
	MULSD  X9, X5
	ADDSD  X5, X6
	MOVAPD X2, X4
	MULSD  X10, X4
	ADDSD  X4, X6
	MOVAPD X3, X5
	MULSD  X11, X5
	ADDSD  X5, X6
	MOVSD  X6, (R9)(R11*8)

	// DX = &xtx[a*p+a], R12 = run length d-a.
	MOVQ     R11, DX
	IMULQ    R10, DX
	ADDQ     R11, DX
	LEAQ     (R8)(DX*8), DX
	MOVQ     CX, R12
	SUBQ     R11, R12
	UNPCKLPD X0, X0
	UNPCKLPD X1, X1
	UNPCKLPD X2, X2
	UNPCKLPD X3, X3
	CMPQ     R12, $2
	JLT      block_tail

block_pair:
	MOVUPS (DX), X6
	MOVUPS (BX), X4
	MULPD  X0, X4
	ADDPD  X4, X6
	MOVUPS (BX)(R14*1), X5
	MULPD  X1, X5
	ADDPD  X5, X6
	MOVUPS (BX)(R14*2), X4
	MULPD  X2, X4
	ADDPD  X4, X6
	MOVUPS (BX)(AX*1), X5
	MULPD  X3, X5
	ADDPD  X5, X6
	MOVUPS X6, (DX)
	ADDQ   $16, BX
	ADDQ   $16, DX
	SUBQ   $2, R12
	CMPQ   R12, $2
	JGE    block_pair

block_tail:
	TESTQ R12, R12
	JZ    block_intercept
	MOVSD (DX), X6
	MOVSD (BX), X4
	MULSD X0, X4
	ADDSD X4, X6
	MOVSD (BX)(R14*1), X5
	MULSD X1, X5
	ADDSD X5, X6
	MOVSD (BX)(R14*2), X4
	MULSD X2, X4
	ADDSD X4, X6
	MOVSD (BX)(AX*1), X5
	MULSD X3, X5
	ADDSD X5, X6
	MOVSD X6, (DX)
	ADDQ  $8, DX

block_intercept:
	// DX now points at the intercept column: xtx[a*p+d] += ra_r.
	MOVSD (DX), X6
	ADDSD X0, X6
	ADDSD X1, X6
	ADDSD X2, X6
	ADDSD X3, X6
	MOVSD X6, (DX)
	INCQ  R11
	JMP   loop_a

rowwise:
	// R13 = r; each row with ra != 0 updates line a on its own.
	XORQ R13, R13

row_r:
	MOVQ    R13, BX
	IMULQ   R14, BX
	ADDQ    SI, BX
	LEAQ    (BX)(R11*8), BX // BX = &blk[r*d+a]
	MOVSD   (BX), X4        // X4 = ra
	UCOMISD X7, X4
	JP      row_go
	JE      row_next

row_go:
	// xty[a] += ra * ys[r]
	MOVAPD X4, X5
	MULSD  (DI)(R13*8), X5
	MOVSD  (R9)(R11*8), X6
	ADDSD  X5, X6
	MOVSD  X6, (R9)(R11*8)

	MOVQ     R11, DX
	IMULQ    R10, DX
	ADDQ     R11, DX
	LEAQ     (R8)(DX*8), DX
	MOVQ     CX, R12
	SUBQ     R11, R12
	UNPCKLPD X4, X4
	CMPQ     R12, $2
	JLT      row_tail

row_pair:
	MOVUPS (BX), X5
	MULPD  X4, X5
	MOVUPS (DX), X6
	ADDPD  X5, X6
	MOVUPS X6, (DX)
	ADDQ   $16, BX
	ADDQ   $16, DX
	SUBQ   $2, R12
	CMPQ   R12, $2
	JGE    row_pair

row_tail:
	TESTQ R12, R12
	JZ    row_intercept
	MOVSD (BX), X5
	MULSD X4, X5
	MOVSD (DX), X6
	ADDSD X5, X6
	MOVSD X6, (DX)
	ADDQ  $8, DX

row_intercept:
	MOVSD (DX), X6
	ADDSD X4, X6
	MOVSD X6, (DX)

row_next:
	INCQ R13
	CMPQ R13, $4
	JLT  row_r
	INCQ R11
	JMP  loop_a

done:
	RET
