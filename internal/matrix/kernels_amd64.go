package matrix

// cpuHasAVX2 reports whether the CPU executes AVX2 and the operating system
// saves the YMM registers across context switches: CPUID leaf 1 must show
// OSXSAVE and AVX, XCR0 must enable the SSE and AVX state, and CPUID leaf 7
// must show AVX2.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

//go:noescape
func gramTile4x8(d *float64, ldd int, xj, xk *float64, stride, rows int)

//go:noescape
func symRank2MulVec(w []float64, stride int, u, q, v, p []float64)

//go:noescape
func scaleColsRowSums(data []float64, cols int, f, rowSums []float64)

//go:noescape
func scaleRowsColSums(data []float64, cols int, f, colSums []float64)
