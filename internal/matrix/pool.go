package matrix

import (
	"fmt"
	"math/bits"
	"sync"
)

// Size-classed pooling of Dense backing storage. The serving tier decodes a
// fresh environment per cache-missing request and materializes several
// same-shaped matrices per characterization (the ECS clone, the weighted
// clone, the balanced standard form); at fleet scale each of those is tens
// to hundreds of megabytes, so recycling them across requests is the
// difference between a steady heap and a GC churning through gigabytes.
//
// Buffers are grouped into power-of-two size classes by cell count. Get
// rounds the request up to its class so any pooled buffer of that class can
// serve it; Put files a buffer under the largest class its capacity fully
// covers, so a recycled buffer always satisfies a later Get without
// reallocating. Matrices larger than the top class (1 Gi of float64 cells)
// bypass the pool — at that size the allocator is not the bottleneck.
//
// Recycling is explicit and therefore dangerous in the usual way: the caller
// must guarantee nothing aliases the matrix when it hands it back. The only
// recyclers in-tree are the serving tier's Env release path (see
// etcmat.ReleaseBuffers) and the benchmark harness.

const (
	poolMinBits = 10 // smallest class: 1024 cells (8 KiB) — below this, make is cheap
	poolMaxBits = 27 // largest class: 128 Mi cells (1 GiB)
)

var densePools [poolMaxBits - poolMinBits + 1]sync.Pool

// getClass maps a requested cell count to the pool class that can serve it,
// or -1 when the request is out of pooling range.
func getClass(n int) int {
	if n <= 0 {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n))
	if b < poolMinBits {
		b = poolMinBits
	}
	if b > poolMaxBits {
		return -1
	}
	return b - poolMinBits
}

// putClass maps a buffer capacity to the largest class it fully covers, or
// -1 when it is too small (or too large) to be worth pooling.
func putClass(c int) int {
	if c < 1<<poolMinBits {
		return -1
	}
	b := bits.Len(uint(c)) - 1 // floor(log2(c))
	if b > poolMaxBits {
		b = poolMaxBits
	}
	return b - poolMinBits
}

// pooledRaw returns a *Dense with an n-cell backing slice of unspecified
// content, from the pool when a buffer of the right class is available.
func pooledRaw(n int) *Dense {
	cl := getClass(n)
	if cl < 0 {
		return &Dense{data: make([]float64, n)}
	}
	if v := densePools[cl].Get(); v != nil {
		m := v.(*Dense)
		m.data = m.data[:n]
		return m
	}
	return &Dense{data: make([]float64, n, 1<<(cl+poolMinBits))}
}

// NewPooled returns an r×c all-zero matrix whose backing storage may be
// recycled from a previous Recycle. It is interchangeable with New; the only
// difference is where the memory comes from.
func NewPooled(r, c int) *Dense {
	checkDims(r, c)
	m := pooledRaw(r * c)
	for i := range m.data {
		m.data[i] = 0
	}
	m.rows, m.cols = r, c
	return m
}

// FromDataPooled returns an r×c matrix backed by pool storage holding a copy
// of data (row-major, length r*c). It is the ingestion-side counterpart of
// ClonePooled: a decoder that accumulates cells in a reusable scratch buffer
// can materialize a recyclable matrix directly, without an intermediate
// unpooled Dense that the clone would immediately orphan.
func FromDataPooled(r, c int, data []float64) *Dense {
	checkDims(r, c)
	if len(data) != r*c {
		panic(fmt.Sprintf("matrix: FromDataPooled %dx%d requires %d values, got %d", r, c, r*c, len(data)))
	}
	m := pooledRaw(r * c)
	m.rows, m.cols = r, c
	copy(m.data, data)
	return m
}

// ClonePooled returns a copy of src backed by pool storage, skipping the
// zero-fill a NewPooled+copy would pay.
func ClonePooled(src *Dense) *Dense {
	m := pooledRaw(src.rows * src.cols)
	m.rows, m.cols = src.rows, src.cols
	copy(m.data, src.data)
	return m
}

// Recycle hands m's backing storage back to the pool and empties m to a 0×0
// matrix so accidental reuse fails loudly (out-of-range access) instead of
// silently reading recycled memory. It accepts any Dense, pooled origin or
// not; nil and unpoolable sizes are no-ops.
func Recycle(m *Dense) {
	if m == nil {
		return
	}
	cl := putClass(cap(m.data))
	data := m.data
	m.rows, m.cols, m.data = 0, 0, nil
	if cl < 0 {
		return
	}
	densePools[cl].Put(&Dense{data: data[:0]})
}

// putRaw files a buffer obtained from pooledRaw back under its class,
// reusing m itself as the pooled header so a borrow-and-return pair costs
// no allocation. Unlike Recycle it is for in-package scratch whose header
// no caller can still hold.
func putRaw(m *Dense) {
	if cl := putClass(cap(m.data)); cl >= 0 {
		m.rows, m.cols, m.data = 0, 0, m.data[:0]
		densePools[cl].Put(m)
	}
}
