//go:build amd64

#include "textflag.h"

// func accumBlock4(xtx, xty, blk, ys []float64, p int)
//
// Four packed rows' normal-equation update (the contract is documented
// on the declaration and the generic implementation). Row r is
// blk[r*p:(r+1)*p], the design row [x 1], so line a's run of cells
// xtx[a*p+a : a*p+p] ends with its intercept cell and line p-1 is the
// intercept line. Every cell receives, per row in row order, one
// multiply and one add, each with a single rounding (MULPD/ADDPD,
// never FMA): prod = row[b]*row[a] (row[a]*y for Xᵀy), then
// cell = cell + prod — the per-row loop's operations, so the result is
// bit-identical to it.
//
// This is the SSE2 kernel. When p >= wideMinP (set at init, see
// accum_amd64.go) it jumps to accumBlock4AVX512 instead.
//
// Register layout:
//   R8 = &xtx[0]   R9 = &xty[0]   SI = &blk[0]   DI = &ys[0]
//   R10 = p        R14 = p*8 (row stride)        AX = 3*p*8
//   R11 = a        BX = &blk[a] (row 0; row r at BX + r*stride)
//   X0..X3 = ra of rows 0..3      X8..X11 = ys[0..3]       X7 = 0.0
TEXT ·accumBlock4(SB), NOSPLIT, $0-104
	MOVQ  p+96(FP), R10
	CMPQ  R10, ·wideMinP(SB)
	JGE   wide
	MOVQ  xtx_base+0(FP), R8
	MOVQ  xty_base+24(FP), R9
	MOVQ  blk_base+48(FP), SI
	MOVQ  ys_base+72(FP), DI
	MOVQ  R10, R14
	SHLQ  $3, R14
	LEAQ  (R14)(R14*2), AX
	MOVSD 0(DI), X8
	MOVSD 8(DI), X9
	MOVSD 16(DI), X10
	MOVSD 24(DI), X11
	XORPS X7, X7
	XORQ  R11, R11

loop_a:
	CMPQ  R11, R10
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

	// DX = &xtx[a*p+a], R12 = run length p-a.
	MOVQ     R11, DX
	IMULQ    R10, DX
	ADDQ     R11, DX
	LEAQ     (R8)(DX*8), DX
	MOVQ     R10, R12
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
	JZ    block_next
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

block_next:
	INCQ R11
	JMP  loop_a

rowwise:
	// R13 = r; each row with ra != 0 updates line a on its own.
	XORQ R13, R13

row_r:
	MOVQ    R13, BX
	IMULQ   R14, BX
	ADDQ    SI, BX
	LEAQ    (BX)(R11*8), BX // BX = &blk[r*p+a]
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
	MOVQ     R10, R12
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
	JZ    row_next
	MOVSD (BX), X5
	MULSD X4, X5
	MOVSD (DX), X6
	ADDSD X5, X6
	MOVSD X6, (DX)

row_next:
	INCQ R13
	CMPQ R13, $4
	JLT  row_r
	INCQ R11
	JMP  loop_a

done:
	RET

wide:
	JMP ·accumBlock4AVX512(SB)

// func accumBlock4AVX512(xtx, xty, blk, ys []float64, p int)
//
// accumBlock4's contract, eight cells per ZMM register. Xᵀy is one
// pass over the p cells: per eight cells, each row r in order adds
// row[a]*y_r under the mask row[a] != 0. Then every line a runs its
// p-a cells eight at a time and finishes with a masked tail: each row
// r in order multiplies its eight row[b] by ra_r and adds them under
// K_r, which is all ones when ra_r != 0 and empty otherwise, so a zero
// row leaves every cell of the line untouched, exactly as the per-row
// loop's skip does. VCMPPD's predicate 4 (NEQ_UQ) treats -0 as zero
// and NaN as nonzero, as that skip does. Merge-masked adds keep their
// accumulator as the first source, so a NaN product cannot displace a
// NaN already in the cell, and the products take row[b] as their
// first source, so NaN payloads propagate exactly as in SSE2.
//
// Register layout:
//   R8 = &xtx[0]   R9 = &xty[0]   SI = &blk[0]   DI = &ys[0]
//   R10 = p        R14 = p*8 (row stride)        AX = 3*p*8
//   R11 = a        BX = row 0's next eight cells (row r at BX + r*stride)
//   DX = the next eight cells of xtx (or xty)    R12 = cells left
//   Z0..Z3 = ra of rows 0..3 (broadcast)         K1..K4 = their masks
//   Z8..Z11 = ys[0..3] (broadcast)               Z7 = 0.0
//   K5 = the tail's lanes                        Z6 = the cells
TEXT ·accumBlock4AVX512(SB), NOSPLIT, $0-104
	MOVQ         xtx_base+0(FP), R8
	MOVQ         xty_base+24(FP), R9
	MOVQ         blk_base+48(FP), SI
	MOVQ         ys_base+72(FP), DI
	MOVQ         p+96(FP), R10
	MOVQ         R10, R14
	SHLQ         $3, R14
	LEAQ         (R14)(R14*2), AX
	VPXORQ       Z7, Z7, Z7
	VBROADCASTSD 0(DI), Z8
	VBROADCASTSD 8(DI), Z9
	VBROADCASTSD 16(DI), Z10
	VBROADCASTSD 24(DI), Z11

	// Xᵀy: xty[a] += row_r[a] * y_r where row_r[a] != 0, rows in order.
	MOVQ SI, BX
	MOVQ R9, DX
	MOVQ R10, R12
	CMPQ R12, $8
	JLT  ty_tail

ty_full:
	VMOVUPD (DX), Z6
	VMOVUPD (BX), Z4
	VCMPPD  $4, Z7, Z4, K1
	VMULPD  Z8, Z4, Z4
	VADDPD  Z4, Z6, K1, Z6
	VMOVUPD (BX)(R14*1), Z5
	VCMPPD  $4, Z7, Z5, K2
	VMULPD  Z9, Z5, Z5
	VADDPD  Z5, Z6, K2, Z6
	VMOVUPD (BX)(R14*2), Z4
	VCMPPD  $4, Z7, Z4, K3
	VMULPD  Z10, Z4, Z4
	VADDPD  Z4, Z6, K3, Z6
	VMOVUPD (BX)(AX*1), Z5
	VCMPPD  $4, Z7, Z5, K4
	VMULPD  Z11, Z5, Z5
	VADDPD  Z5, Z6, K4, Z6
	VMOVUPD Z6, (DX)
	ADDQ    $64, BX
	ADDQ    $64, DX
	SUBQ    $8, R12
	CMPQ    R12, $8
	JGE     ty_full

ty_tail:
	TESTQ     R12, R12
	JZ        lines
	MOVQ      R12, CX
	MOVL      $1, R13
	SHLL      CX, R13
	DECL      R13
	KMOVW     R13, K5
	VMOVUPD.Z (DX), K5, Z6
	VMOVUPD.Z (BX), K5, Z4
	VCMPPD    $4, Z7, Z4, K1
	VMULPD    Z8, Z4, Z4
	VADDPD    Z4, Z6, K1, Z6
	VMOVUPD.Z (BX)(R14*1), K5, Z5
	VCMPPD    $4, Z7, Z5, K2
	VMULPD    Z9, Z5, Z5
	VADDPD    Z5, Z6, K2, Z6
	VMOVUPD.Z (BX)(R14*2), K5, Z4
	VCMPPD    $4, Z7, Z4, K3
	VMULPD    Z10, Z4, Z4
	VADDPD    Z4, Z6, K3, Z6
	VMOVUPD.Z (BX)(AX*1), K5, Z5
	VCMPPD    $4, Z7, Z5, K4
	VMULPD    Z11, Z5, Z5
	VADDPD    Z5, Z6, K4, Z6
	VMOVUPD   Z6, K5, (DX)

lines:
	XORQ R11, R11

line:
	CMPQ         R11, R10
	JGE          wide_done
	LEAQ         (SI)(R11*8), BX
	VBROADCASTSD (BX), Z0
	VBROADCASTSD (BX)(R14*1), Z1
	VBROADCASTSD (BX)(R14*2), Z2
	VBROADCASTSD (BX)(AX*1), Z3
	VCMPPD       $4, Z7, Z0, K1
	VCMPPD       $4, Z7, Z1, K2
	VCMPPD       $4, Z7, Z2, K3
	VCMPPD       $4, Z7, Z3, K4

	// DX = &xtx[a*p+a], R12 = run length p-a.
	MOVQ  R11, DX
	IMULQ R10, DX
	ADDQ  R11, DX
	LEAQ  (R8)(DX*8), DX
	MOVQ  R10, R12
	SUBQ  R11, R12
	CMPQ  R12, $8
	JLT   cells_tail

cells:
	VMOVUPD (DX), Z6
	VMOVUPD (BX), Z4
	VMULPD  Z0, Z4, Z4
	VADDPD  Z4, Z6, K1, Z6
	VMOVUPD (BX)(R14*1), Z5
	VMULPD  Z1, Z5, Z5
	VADDPD  Z5, Z6, K2, Z6
	VMOVUPD (BX)(R14*2), Z4
	VMULPD  Z2, Z4, Z4
	VADDPD  Z4, Z6, K3, Z6
	VMOVUPD (BX)(AX*1), Z5
	VMULPD  Z3, Z5, Z5
	VADDPD  Z5, Z6, K4, Z6
	VMOVUPD Z6, (DX)
	ADDQ    $64, BX
	ADDQ    $64, DX
	SUBQ    $8, R12
	CMPQ    R12, $8
	JGE     cells

cells_tail:
	TESTQ     R12, R12
	JZ        line_next
	MOVQ      R12, CX
	MOVL      $1, R13
	SHLL      CX, R13
	DECL      R13
	KMOVW     R13, K5
	VMOVUPD.Z (DX), K5, Z6
	VMOVUPD.Z (BX), K5, Z4
	VMULPD    Z0, Z4, Z4
	VADDPD    Z4, Z6, K1, Z6
	VMOVUPD.Z (BX)(R14*1), K5, Z5
	VMULPD    Z1, Z5, Z5
	VADDPD    Z5, Z6, K2, Z6
	VMOVUPD.Z (BX)(R14*2), K5, Z4
	VMULPD    Z2, Z4, Z4
	VADDPD    Z4, Z6, K3, Z6
	VMOVUPD.Z (BX)(AX*1), K5, Z5
	VMULPD    Z3, Z5, Z5
	VADDPD    Z5, Z6, K4, Z6
	VMOVUPD   Z6, K5, (DX)

line_next:
	INCQ R11
	JMP  line

wide_done:
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

// func residualPass(coef []float64, xs [][]float64, ys []float64, icpt float64) (maxAbs, sum float64)
//
// The fused e_R and prediction-sum pass (the contract is documented on
// the declaration). Per gene j and row r: prod = coef[j]*x_r[j] (MULSD
// into a copy of the coefficient), then s_r = s_r + prod (ADDSD into
// the accumulator); then s_r = s_r + icpt. Each row then folds in row
// order: res = |y - p| (SUBSD into y, sign bit cleared), maxAbs =
// res > maxAbs ? res : maxAbs (MAXSD with maxAbs as source, which
// also keeps maxAbs when res is NaN), sum = sum + p. These are the
// instructions Go compiles a per-row Predict loop to, operand for
// operand, so even NaN payloads come out the same.
//
// Register layout:
//   SI = &coef[0]   CX = len(coef)   DX = &xs[0] (24-byte headers)
//   BX = len(xs)    DI = &ys[0]      R13 = k (row)   AX = j (gene)
//   R15 = &xs[k]    R8..R11 = &x_k[0]..&x_{k+3}[0]
//   X0..X3 = s_0..s_3   X4 = coef[j]   X5..X8 = products   X9 = res
//   X10 = maxAbs    X11 = sum        X12 = icpt      X14 = abs mask
TEXT ·residualPass(SB), NOSPLIT, $0-96
	MOVQ  coef_base+0(FP), SI
	MOVQ  coef_len+8(FP), CX
	MOVQ  xs_base+24(FP), DX
	MOVQ  xs_len+32(FP), BX
	MOVQ  ys_base+48(FP), DI
	MOVSD icpt+72(FP), X12
	MOVQ  $0x7fffffffffffffff, R12
	MOVQ  R12, X14
	XORPS X10, X10
	XORPS X11, X11
	XORQ  R13, R13

block:
	LEAQ  4(R13), R12
	CMPQ  R12, BX
	JGT   tail
	LEAQ  (R13)(R13*2), R15
	LEAQ  (DX)(R15*8), R15
	MOVQ  0(R15), R8
	MOVQ  24(R15), R9
	MOVQ  48(R15), R10
	MOVQ  72(R15), R11
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX

block_j:
	CMPQ   AX, CX
	JGE    block_fold
	MOVSD  (SI)(AX*8), X4
	MOVAPD X4, X5
	MULSD  (R8)(AX*8), X5
	MOVAPD X4, X6
	MULSD  (R9)(AX*8), X6
	MOVAPD X4, X7
	MULSD  (R10)(AX*8), X7
	MOVAPD X4, X8
	MULSD  (R11)(AX*8), X8
	ADDSD  X5, X0
	ADDSD  X6, X1
	ADDSD  X7, X2
	ADDSD  X8, X3
	INCQ   AX
	JMP    block_j

block_fold:
	ADDSD  X12, X0
	ADDSD  X12, X1
	ADDSD  X12, X2
	ADDSD  X12, X3
	MOVSD  0(DI)(R13*8), X9
	SUBSD  X0, X9
	ANDPD  X14, X9
	MAXSD  X10, X9
	MOVAPD X9, X10
	ADDSD  X0, X11
	MOVSD  8(DI)(R13*8), X9
	SUBSD  X1, X9
	ANDPD  X14, X9
	MAXSD  X10, X9
	MOVAPD X9, X10
	ADDSD  X1, X11
	MOVSD  16(DI)(R13*8), X9
	SUBSD  X2, X9
	ANDPD  X14, X9
	MAXSD  X10, X9
	MOVAPD X9, X10
	ADDSD  X2, X11
	MOVSD  24(DI)(R13*8), X9
	SUBSD  X3, X9
	ANDPD  X14, X9
	MAXSD  X10, X9
	MOVAPD X9, X10
	ADDSD  X3, X11
	MOVQ   R12, R13
	JMP    block

tail:
	CMPQ  R13, BX
	JGE   done
	LEAQ  (R13)(R13*2), R15
	MOVQ  (DX)(R15*8), R8
	XORPS X0, X0
	XORQ  AX, AX

tail_j:
	CMPQ  AX, CX
	JGE   tail_fold
	MOVSD (SI)(AX*8), X4
	MULSD (R8)(AX*8), X4
	ADDSD X4, X0
	INCQ  AX
	JMP   tail_j

tail_fold:
	ADDSD  X12, X0
	MOVSD  (DI)(R13*8), X9
	SUBSD  X0, X9
	ANDPD  X14, X9
	MAXSD  X10, X9
	MOVAPD X9, X10
	ADDSD  X0, X11
	INCQ   R13
	JMP    tail

done:
	MOVSD X10, maxAbs+80(FP)
	MOVSD X11, sum+88(FP)
	RET
