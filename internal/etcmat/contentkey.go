package etcmat

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"unsafe"
)

// ContentKey is the canonical content address of an environment: a SHA-256
// over everything a measure profile depends on — the ECS entries, both weight
// vectors and the dimensions. Task and machine names are excluded (no measure
// reads them), so two environments that differ only in labeling share a key,
// and any numeric difference separates them.
//
// The canonical byte stream is, in order, all little-endian uint64s:
//
//	ECS entries row-major (float64 bits, -0 canonicalized to +0),
//	task weights, machine weights (float64 bits),
//	tasks, machines.
//
// The dimensions come LAST so a streaming decoder can feed cells into a
// ContentHasher as it tokenizes them, before it knows how many rows the body
// holds; the trailing dims and weight vectors make the stream unambiguous for
// every valid environment (a T×M environment always contributes exactly
// T·M + T + M + 2 words).
type ContentKey [sha256.Size]byte

// ContentKey computes the canonical content address of the environment. The
// serving tier's result cache is keyed by it; streaming request decoders
// reproduce it incrementally with a ContentHasher instead of calling this.
func (e *Env) ContentKey() ContentKey {
	h := NewContentHasher()
	t, m := e.Tasks(), e.Machines()
	for i := 0; i < t; i++ {
		for j := 0; j < m; j++ {
			h.WriteValue(e.ecs.At(i, j))
		}
	}
	h.WriteValues(e.taskWeights)
	h.WriteValues(e.machineWeights)
	return h.Sum(t, m)
}

// ContentHasher accumulates the canonical byte stream of an environment
// incrementally, so a request decoder can hash ECS cells while it parses
// them and never rescans (or re-materializes) the matrix to key the cache.
// Values are block-buffered before reaching SHA-256: one Write per cell
// would dominate the hash cost at fleet shapes.
//
// Usage: WriteValue/WriteValues for every ECS cell in row-major order, then
// the weight vectors (WriteValues, or WriteOnes for defaulted weights), then
// Sum with the dimensions. Reset recycles the hasher.
type ContentHasher struct {
	h   hash.Hash
	buf [64 * 8]byte
	n   int
	// sum is the retained digest output buffer. Passing a local array through
	// the hash.Hash interface forces it to escape — one heap allocation per
	// Sum, which is one per request on the pooled decode path; appending into
	// a field the hasher owns keeps the warm path allocation-free.
	sum []byte
}

// NewContentHasher returns an empty hasher.
func NewContentHasher() *ContentHasher {
	return &ContentHasher{h: sha256.New()}
}

// Reset returns the hasher to its initial state for reuse.
func (c *ContentHasher) Reset() {
	c.h.Reset()
	c.n = 0
}

func (c *ContentHasher) writeU64(v uint64) {
	if c.n == len(c.buf) {
		c.h.Write(c.buf[:])
		c.n = 0
	}
	binary.LittleEndian.PutUint64(c.buf[c.n:], v)
	c.n += 8
}

// WriteValue appends one float64 to the canonical stream, canonicalizing -0
// to +0 so numerically equal matrices share keys.
func (c *ContentHasher) WriteValue(v float64) {
	if v == 0 {
		v = 0
	}
	c.writeU64(math.Float64bits(v))
}

// WriteValues appends a float64 slice to the canonical stream.
func (c *ContentHasher) WriteValues(vs []float64) {
	for _, v := range vs {
		c.WriteValue(v)
	}
}

// WriteCells appends ECS cells that hold no −0 — the reciprocals
// ECSFromETCWords writes never do — to the canonical stream. On a
// little-endian host their memory already is that stream, so it reaches
// SHA-256 in one Write; elsewhere they go value by value. A −0 cell would
// hash unlike the +0 WriteValue canonicalizes it to.
func (c *ContentHasher) WriteCells(vs []float64) {
	if !littleEndian {
		c.WriteValues(vs)
		return
	}
	c.h.Write(c.buf[:c.n])
	c.n = 0
	c.h.Write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 8*len(vs)))
}

// littleEndian reports whether float64 values sit in memory in the
// canonical stream's byte order.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// WriteOnes appends n unit weights — the canonical form of an absent weight
// vector.
func (c *ContentHasher) WriteOnes(n int) {
	for i := 0; i < n; i++ {
		c.writeU64(math.Float64bits(1))
	}
}

// Sum appends the trailing dimensions and returns the finished key. The
// hasher must be Reset before reuse.
func (c *ContentHasher) Sum(tasks, machines int) ContentKey {
	c.writeU64(uint64(tasks))
	c.writeU64(uint64(machines))
	c.h.Write(c.buf[:c.n])
	c.n = 0
	c.sum = c.h.Sum(c.sum[:0])
	var k ContentKey
	copy(k[:], c.sum)
	return k
}
