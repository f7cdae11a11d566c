//go:build !amd64

package matrix

// Only amd64 has vector kernels; every other architecture runs the scalar
// loops, so the stubs below are unreachable.

func cpuHasAVX2() bool { return false }

func gramTile4x8(d *float64, ldd int, xj, xk *float64, stride, rows int) {
	panic("matrix: no vector kernels on this architecture")
}

func rowCombination(p []float64, w []float64, stride int, u []float64) {
	panic("matrix: no vector kernels on this architecture")
}

func symRank2(w []float64, stride int, u, q []float64) {
	panic("matrix: no vector kernels on this architecture")
}
