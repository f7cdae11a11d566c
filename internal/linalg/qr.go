// Package linalg implements the dense numerical linear algebra this
// repository needs, from scratch on top of internal/matrix: Householder QR,
// a Golub–Reinsch SVD, a one-sided Jacobi SVD used as an independent
// cross-check, a cyclic Jacobi symmetric eigensolver, and a values-only
// spectral fast path (Gram matrix + Householder tridiagonalization +
// root-free QL) for consumers that need σ but not U/V.
//
// The task-machine affinity measure (TMA) of the reproduced paper is a
// function of the singular values of a standardized ECS matrix, so the SVD is
// the numerical heart of this repository. Factor-producing consumers use the
// Jacobi or Golub–Reinsch paths, which cross-check each other in tests;
// SingularValues takes the Gram fast path (see spectral.go) and uses the
// Jacobi SVD as its oracle and non-convergence fallback.
package linalg

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/matrix"
)

// QR computes a thin Householder QR factorization a = Q·R where a is m×n with
// m >= n, Q is m×n with orthonormal columns and R is n×n upper triangular.
func QR(a *matrix.Dense) (q, r *matrix.Dense) {
	m, n := a.Dims()
	if m < n {
		panic(fmt.Sprintf("linalg: QR requires rows >= cols, got %dx%d", m, n))
	}
	// Work on a copy; store Householder vectors in the lower triangle.
	work := a.Clone()
	betas := make([]float64, n)
	for k := 0; k < n; k++ {
		// Build the Householder vector for column k below the diagonal.
		norm := 0.0
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, work.At(i, k))
		}
		if norm == 0 {
			betas[k] = 0
			continue
		}
		alpha := work.At(k, k)
		if alpha > 0 {
			norm = -norm
		}
		v0 := alpha - norm
		betas[k] = -v0 / norm // beta = v0 / (norm * -1) such that H = I - beta v v^T / v0^2-normalized form
		// Normalize so v[k] = 1.
		work.Set(k, k, norm)
		for i := k + 1; i < m; i++ {
			work.Set(i, k, work.At(i, k)/v0)
		}
		// Apply H to the trailing columns: A := (I - beta v v^T) A.
		for j := k + 1; j < n; j++ {
			s := work.At(k, j) // v[k] == 1
			for i := k + 1; i < m; i++ {
				s += work.At(i, k) * work.At(i, j)
			}
			s *= betas[k]
			work.Set(k, j, work.At(k, j)-s)
			for i := k + 1; i < m; i++ {
				work.Set(i, j, work.At(i, j)-s*work.At(i, k))
			}
		}
	}
	// Extract R.
	r = matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, work.At(i, j))
		}
	}
	// Form thin Q by applying the Householder reflectors to the first n
	// columns of the identity, in reverse order.
	q = matrix.New(m, n)
	for j := 0; j < n; j++ {
		q.Set(j, j, 1)
	}
	for k := n - 1; k >= 0; k-- {
		if betas[k] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			s := q.At(k, j)
			for i := k + 1; i < m; i++ {
				s += work.At(i, k) * q.At(i, j)
			}
			s *= betas[k]
			q.Set(k, j, q.At(k, j)-s)
			for i := k + 1; i < m; i++ {
				q.Set(i, j, q.At(i, j)-s*work.At(i, k))
			}
		}
	}
	return q, r
}

// RandomOrthogonal returns a Haar-ish random n×n orthogonal matrix, obtained
// as the Q factor of a Gaussian matrix with the sign convention fixed so the
// distribution does not collapse.
func RandomOrthogonal(n int, rng *rand.Rand) *matrix.Dense {
	g := matrix.New(n, n)
	for i := range g.RawData() {
		g.RawData()[i] = rng.NormFloat64()
	}
	q, r := QR(g)
	// Fix signs: multiply column j of Q by sign(R[j,j]).
	signs := make([]float64, n)
	for j := 0; j < n; j++ {
		if r.At(j, j) < 0 {
			signs[j] = -1
		} else {
			signs[j] = 1
		}
	}
	return q.ScaleCols(signs)
}
