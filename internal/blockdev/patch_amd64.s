#include "textflag.h"

// func diffSpanAVX2(b, base *[1024]byte) uint64
//
// One bit per 64-byte chunk of the span, set where b and base differ:
// two 32-byte compares per chunk, no branch on the data.
TEXT ·diffSpanAVX2(SB), NOSPLIT, $0-24
	MOVQ b+0(FP), SI
	MOVQ base+8(FP), DI
	XORQ AX, AX
	XORQ CX, CX

loop:
	VMOVDQU   (SI), Y0
	VMOVDQU   32(SI), Y1
	VPCMPEQB  (DI), Y0, Y0
	VPCMPEQB  32(DI), Y1, Y1
	VPAND     Y0, Y1, Y0
	VPMOVMSKB Y0, DX
	XORL      BX, BX
	CMPL      DX, $-1
	SETNE     BX
	SHLQ      CX, BX
	ORQ       BX, AX
	ADDQ      $64, SI
	ADDQ      $64, DI
	INCQ      CX
	CMPQ      CX, $16
	JNE       loop

	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET

// func cpuHasAVX2() bool
//
// CPUID says AVX and AVX2 are there, and XGETBV that the OS saves the
// YMM registers.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX // OSXSAVE | AVX
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX // XMM | YMM state
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $5, BX // AVX2
	JCC   no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
