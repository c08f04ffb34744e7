package blockdev

// diffSpan compares with AVX2 where the CPU has it: a quarter block in
// one pass of 32-byte vector compares.
var useAVX2 = cpuHasAVX2()

func diffSpan(b, base *[diffSpanLen]byte) uint64 {
	if useAVX2 {
		return diffSpanAVX2(b, base)
	}
	return diffSpanGo(b, base)
}

//go:noescape
func diffSpanAVX2(b, base *[diffSpanLen]byte) uint64

func cpuHasAVX2() bool
