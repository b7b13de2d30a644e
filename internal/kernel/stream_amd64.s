#include "textflag.h"

// Registers of streamRunsAVX2:
//
//	DI   destination row	SI   vals		CX   end entry ptr[i+1]
//	BX   idx headers	DX   facs headers	R9   len(facs)·24
//	R10  R·8 (row stride)	R11  column byte offset of the block
//	R12  entry e		R13  factor header offset m·24
//	R15  first entry ptr[i]	AX, R8, R14 scratch
//
// Y0–Y3 (X0 in the tail) hold the block's accumulators, Y4 (X4) the
// broadcast value, Y5–Y8 (X5) the running product.

// ROW leaves in R14 the address of factor m's data and in AX the byte
// offset of row idx[m][i] at the current block, where i is held in
// register ent (the entry e of streamRunsAVX2, the parent element pe of
// gatherRunsAVX2), and jumps to fail unless the block's end, end bytes
// past that offset, lies inside facs[m]. The index is zero-extended: a
// negative int32 becomes a row past every factor and fails the check.
#define ROW(ent, end) \
	MOVQ    (BX)(R13*1), AX; \
	MOVLQZX (AX)(ent*4), AX; \
	IMULQ   R10, AX; \
	ADDQ    R11, AX; \
	LEAQ    end(AX), R14; \
	MOVQ    8(DX)(R13*1), R8; \
	SHLQ    $3, R8; \
	CMPQ    R14, R8; \
	JHI     fail; \
	MOVQ    (DX)(R13*1), R14

// RUN starts the next run i of the chunk, or jumps to done when none is
// left. It advances the ptr (and row map) arguments past the run and
// leaves in AX and CX the run's entry bounds ptr[i] and ptr[i+1], and in
// DI the address of its destination row. With a row map that is row
// rows[i] of dst, zero-extended, and RUN jumps to fail unless the whole
// row, R·8 bytes from rows[i]·R·8, lies inside dst. Without one it is the
// next row of dst, whose base argument advances by a row per run (the Go
// wrapper has checked that every run's row fits). The two functions share
// the argument layout up to rows, which RUN reads.
#define RUN \
	MOVQ    ptr_len+40(FP), R8; \
	CMPQ    R8, $1; \
	JLE     done; \
	DECQ    R8; \
	MOVQ    R8, ptr_len+40(FP); \
	MOVQ    ptr_base+32(FP), R8; \
	MOVQ    (R8), AX; \
	MOVQ    8(R8), CX; \
	ADDQ    $8, R8; \
	MOVQ    R8, ptr_base+32(FP); \
	MOVQ    rows_len+64(FP), R8; \
	TESTQ   R8, R8; \
	JNE     mapped; \
	MOVQ    dst_base+0(FP), DI; \
	LEAQ    (DI)(R10*1), R8; \
	MOVQ    R8, dst_base+0(FP); \
	JMP     rowset; \
mapped: \
	MOVQ    rows_base+56(FP), R8; \
	MOVLQZX (R8), DI; \
	ADDQ    $4, R8; \
	MOVQ    R8, rows_base+56(FP); \
	IMULQ   R10, DI; \
	LEAQ    (DI)(R10*1), R8; \
	SHRQ    $3, R8; \
	CMPQ    R8, dst_len+8(FP); \
	JHI     fail; \
	ADDQ    dst_base+0(FP), DI; \
rowset:

// func streamRunsAVX2(dst []float64, r int, ptr []int64, rows []int32, vals []float64, idx [][]int32, facs [][]float64) bool
TEXT ·streamRunsAVX2(SB), NOSPLIT, $0-153
	MOVQ    r+24(FP), R10
	MOVQ    vals_base+80(FP), SI
	MOVQ    idx_base+104(FP), BX
	MOVQ    facs_base+128(FP), DX
	MOVQ    facs_len+136(FP), R9
	IMUL3Q  $24, R9, R9
	SHLQ    $3, R10

run:
	RUN
	MOVQ    AX, R15
	XORQ    R11, R11

block16:
	LEAQ    128(R11), R8
	CMPQ    R8, R10
	JHI     block4
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	MOVQ    R15, R12

nz16:
	CMPQ    R12, CX
	JGE     store16
	VBROADCASTSD (SI)(R12*8), Y4
	XORQ    R13, R13
	ROW(R12, 128)
	VMULPD  0(R14)(AX*1), Y4, Y5
	VMULPD  32(R14)(AX*1), Y4, Y6
	VMULPD  64(R14)(AX*1), Y4, Y7
	VMULPD  96(R14)(AX*1), Y4, Y8
	ADDQ    $24, R13

fac16:
	CMPQ    R13, R9
	JEQ     add16
	ROW(R12, 128)
	VMULPD  0(R14)(AX*1), Y5, Y5
	VMULPD  32(R14)(AX*1), Y6, Y6
	VMULPD  64(R14)(AX*1), Y7, Y7
	VMULPD  96(R14)(AX*1), Y8, Y8
	ADDQ    $24, R13
	JMP     fac16

add16:
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	INCQ    R12
	JMP     nz16

store16:
	VMOVUPD Y0, 0(DI)(R11*1)
	VMOVUPD Y1, 32(DI)(R11*1)
	VMOVUPD Y2, 64(DI)(R11*1)
	VMOVUPD Y3, 96(DI)(R11*1)
	ADDQ    $128, R11
	JMP     block16

block4:
	LEAQ    32(R11), R8
	CMPQ    R8, R10
	JHI     tail
	VXORPD  Y0, Y0, Y0
	MOVQ    R15, R12

nz4:
	CMPQ    R12, CX
	JGE     store4
	VBROADCASTSD (SI)(R12*8), Y4
	XORQ    R13, R13
	ROW(R12, 32)
	VMULPD  (R14)(AX*1), Y4, Y5
	ADDQ    $24, R13

fac4:
	CMPQ    R13, R9
	JEQ     add4
	ROW(R12, 32)
	VMULPD  (R14)(AX*1), Y5, Y5
	ADDQ    $24, R13
	JMP     fac4

add4:
	VADDPD  Y5, Y0, Y0
	INCQ    R12
	JMP     nz4

store4:
	VMOVUPD Y0, (DI)(R11*1)
	ADDQ    $32, R11
	JMP     block4

tail:
	CMPQ    R11, R10
	JEQ     run
	VXORPD  X0, X0, X0
	MOVQ    R15, R12

nz1:
	CMPQ    R12, CX
	JGE     store1
	VMOVSD  (SI)(R12*8), X4
	XORQ    R13, R13
	ROW(R12, 8)
	VMULSD  (R14)(AX*1), X4, X5
	ADDQ    $24, R13

fac1:
	CMPQ    R13, R9
	JEQ     add1
	ROW(R12, 8)
	VMULSD  (R14)(AX*1), X5, X5
	ADDQ    $24, R13
	JMP     fac1

add1:
	VADDSD  X5, X0, X0
	INCQ    R12
	JMP     nz1

store1:
	VMOVSD  X0, (DI)(R11*1)
	ADDQ    $8, R11
	JMP     tail

done:
	VZEROUPPER
	MOVB    $1, ret+152(FP)
	RET

fail:
	VZEROUPPER
	MOVB    $0, ret+152(FP)
	RET

// Registers of gatherRunsAVX2, where they differ from streamRunsAVX2's:
//
//	SI   base		R12  address of elems[e]	CX   address of elems[ptr[i+1]]
//	R15  parent element pe = elems[e]
//
// Y5–Y8 (X5 in the tail) start from the parent's row; Y4 is unused.

// func gatherRunsAVX2(dst []float64, r int, ptr []int64, rows []int32, base []float64, elems []int32, idx [][]int32, facs [][]float64) bool
TEXT ·gatherRunsAVX2(SB), NOSPLIT, $0-177

// PARENT loads the parent element elems[e] into R15, zero-extended, and
// leaves in AX the byte offset of its row at the current block. It jumps
// to fail unless the whole row, R·8 bytes from pe·R·8, lies inside base:
// that also puts pe below base's row count, so the caller's index length
// check covers the loads idx[k][pe]. It is defined inside the function
// because it reads the argument base_len.
#define PARENT \
	MOVLQZX (R12), R15; \
	MOVQ    R15, AX; \
	IMULQ   R10, AX; \
	LEAQ    (AX)(R10*1), R8; \
	SHRQ    $3, R8; \
	CMPQ    R8, base_len+88(FP); \
	JHI     fail; \
	ADDQ    R11, AX

// FIRST points R12 at the current run's first entry, elems[ptr[i]]; RUN
// has advanced the ptr argument past ptr[i], which FIRST reads back.
#define FIRST \
	MOVQ    ptr_base+32(FP), R12; \
	MOVQ    -8(R12), R12; \
	SHLQ    $2, R12; \
	ADDQ    elems_base+104(FP), R12

	MOVQ    r+24(FP), R10
	MOVQ    base_base+80(FP), SI
	MOVQ    idx_base+128(FP), BX
	MOVQ    facs_base+152(FP), DX
	MOVQ    facs_len+160(FP), R9
	IMUL3Q  $24, R9, R9
	SHLQ    $3, R10

run:
	RUN
	SHLQ    $2, CX
	ADDQ    elems_base+104(FP), CX
	XORQ    R11, R11

block16:
	LEAQ    128(R11), R8
	CMPQ    R8, R10
	JHI     block4
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	FIRST

el16:
	CMPQ    R12, CX
	JAE     store16
	PARENT
	VMOVUPD 0(SI)(AX*1), Y5
	VMOVUPD 32(SI)(AX*1), Y6
	VMOVUPD 64(SI)(AX*1), Y7
	VMOVUPD 96(SI)(AX*1), Y8
	XORQ    R13, R13

fac16:
	CMPQ    R13, R9
	JEQ     add16
	ROW(R15, 128)
	VMULPD  0(R14)(AX*1), Y5, Y5
	VMULPD  32(R14)(AX*1), Y6, Y6
	VMULPD  64(R14)(AX*1), Y7, Y7
	VMULPD  96(R14)(AX*1), Y8, Y8
	ADDQ    $24, R13
	JMP     fac16

add16:
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ    $4, R12
	JMP     el16

store16:
	VMOVUPD Y0, 0(DI)(R11*1)
	VMOVUPD Y1, 32(DI)(R11*1)
	VMOVUPD Y2, 64(DI)(R11*1)
	VMOVUPD Y3, 96(DI)(R11*1)
	ADDQ    $128, R11
	JMP     block16

block4:
	LEAQ    32(R11), R8
	CMPQ    R8, R10
	JHI     tail
	VXORPD  Y0, Y0, Y0
	FIRST

el4:
	CMPQ    R12, CX
	JAE     store4
	PARENT
	VMOVUPD (SI)(AX*1), Y5
	XORQ    R13, R13

fac4:
	CMPQ    R13, R9
	JEQ     add4
	ROW(R15, 32)
	VMULPD  (R14)(AX*1), Y5, Y5
	ADDQ    $24, R13
	JMP     fac4

add4:
	VADDPD  Y5, Y0, Y0
	ADDQ    $4, R12
	JMP     el4

store4:
	VMOVUPD Y0, (DI)(R11*1)
	ADDQ    $32, R11
	JMP     block4

tail:
	CMPQ    R11, R10
	JEQ     run
	VXORPD  X0, X0, X0
	FIRST

el1:
	CMPQ    R12, CX
	JAE     store1
	PARENT
	VMOVSD  (SI)(AX*1), X5
	XORQ    R13, R13

fac1:
	CMPQ    R13, R9
	JEQ     add1
	ROW(R15, 8)
	VMULSD  (R14)(AX*1), X5, X5
	ADDQ    $24, R13
	JMP     fac1

add1:
	VADDSD  X5, X0, X0
	ADDQ    $4, R12
	JMP     el1

store1:
	VMOVSD  X0, (DI)(R11*1)
	ADDQ    $8, R11
	JMP     tail

done:
	VZEROUPPER
	MOVB    $1, ret+176(FP)
	RET

fail:
	VZEROUPPER
	MOVB    $0, ret+176(FP)
	RET

// Registers of scatterAccumAVX2, where they differ from streamRunsAVX2's:
//
//	DI   out		R10  R·8 (row stride)	R11  column byte offset
//	R15  address of the nonzero's target row
//
// Y4 (X4) holds the broadcast value, Y5–Y8 (X5) the running product, and
// Y0–Y3 (X0) the target row's block, loaded and stored once per nonzero.

// func scatterAccumAVX2(out []float64, r int, target []int32, vals []float64, idx [][]int32, facs [][]float64) bool
TEXT ·scatterAccumAVX2(SB), NOSPLIT, $0-129
	MOVQ    out_base+0(FP), DI
	MOVQ    r+24(FP), R10
	MOVQ    vals_base+56(FP), SI
	MOVQ    vals_len+64(FP), CX
	MOVQ    idx_base+80(FP), BX
	MOVQ    facs_base+104(FP), DX
	MOVQ    facs_len+112(FP), R9
	IMUL3Q  $24, R9, R9
	SHLQ    $3, R10
	XORQ    R12, R12

// Per nonzero: load the target t = target[e], zero-extended, and fail
// unless its whole row, R·8 bytes from t·R·8, lies inside out.
nz:
	CMPQ    R12, CX
	JEQ     done
	MOVQ    target_base+32(FP), R8
	MOVLQZX (R8)(R12*4), R15
	IMULQ   R10, R15
	LEAQ    (R15)(R10*1), R8
	SHRQ    $3, R8
	CMPQ    R8, out_len+8(FP)
	JHI     fail
	ADDQ    DI, R15
	VBROADCASTSD (SI)(R12*8), Y4
	XORQ    R11, R11

block16:
	LEAQ    128(R11), R8
	CMPQ    R8, R10
	JHI     block4
	VMOVAPD Y4, Y5
	VMOVAPD Y4, Y6
	VMOVAPD Y4, Y7
	VMOVAPD Y4, Y8
	XORQ    R13, R13

fac16:
	CMPQ    R13, R9
	JEQ     add16
	ROW(R12, 128)
	VMULPD  0(R14)(AX*1), Y5, Y5
	VMULPD  32(R14)(AX*1), Y6, Y6
	VMULPD  64(R14)(AX*1), Y7, Y7
	VMULPD  96(R14)(AX*1), Y8, Y8
	ADDQ    $24, R13
	JMP     fac16

add16:
	VMOVUPD 0(R15)(R11*1), Y0
	VMOVUPD 32(R15)(R11*1), Y1
	VMOVUPD 64(R15)(R11*1), Y2
	VMOVUPD 96(R15)(R11*1), Y3
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	VMOVUPD Y0, 0(R15)(R11*1)
	VMOVUPD Y1, 32(R15)(R11*1)
	VMOVUPD Y2, 64(R15)(R11*1)
	VMOVUPD Y3, 96(R15)(R11*1)
	ADDQ    $128, R11
	JMP     block16

block4:
	LEAQ    32(R11), R8
	CMPQ    R8, R10
	JHI     tail
	VMOVAPD Y4, Y5
	XORQ    R13, R13

fac4:
	CMPQ    R13, R9
	JEQ     add4
	ROW(R12, 32)
	VMULPD  (R14)(AX*1), Y5, Y5
	ADDQ    $24, R13
	JMP     fac4

add4:
	VMOVUPD (R15)(R11*1), Y0
	VADDPD  Y5, Y0, Y0
	VMOVUPD Y0, (R15)(R11*1)
	ADDQ    $32, R11
	JMP     block4

tail:
	CMPQ    R11, R10
	JEQ     next
	VMOVAPD X4, X5
	XORQ    R13, R13

fac1:
	CMPQ    R13, R9
	JEQ     add1
	ROW(R12, 8)
	VMULSD  (R14)(AX*1), X5, X5
	ADDQ    $24, R13
	JMP     fac1

add1:
	VMOVSD  (R15)(R11*1), X0
	VADDSD  X5, X0, X0
	VMOVSD  X0, (R15)(R11*1)
	ADDQ    $8, R11
	JMP     tail

next:
	INCQ    R12
	JMP     nz

done:
	VZEROUPPER
	MOVB    $1, ret+128(FP)
	RET

fail:
	VZEROUPPER
	MOVB    $0, ret+128(FP)
	RET

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
