package wire

import (
	"encoding/binary"
	"io"
	"math"

	"repro/internal/matrix"
)

// Header is the parsed fixed header of one frame, plus the frame's payload
// slice (aliasing the input, not copied) and total encoded size. It is the
// low-level entry point for zero-copy consumers — the server's streaming
// ingestion walks Payload directly, converting and hashing each cell in one
// pass without an intermediate matrix.
type Header struct {
	Kind    byte
	Rows    int
	Cols    int
	Payload []byte
	// Size is the total frame length in bytes (header + payload); data[Size:]
	// is the start of the next concatenated frame.
	Size int
}

// Cells returns Rows·Cols.
func (h Header) Cells() int { return h.Rows * h.Cols }

// PeekFrameSize computes the total encoded size (header + payload) of the
// frame whose fixed header begins data, validating everything the header
// alone can prove — magic, version, kind, dimension sanity — without
// requiring any payload bytes to be present. Streaming readers (the /v1/
// stream binary session) use it to size the read for the rest of the frame.
func PeekFrameSize(data []byte) (int, error) {
	if len(data) < HeaderSize {
		return 0, malformedf("truncated header: %d bytes, need %d", len(data), HeaderSize)
	}
	if string(data[:4]) != Magic {
		return 0, malformedf("bad magic %q, want %q", data[:4], Magic)
	}
	if data[4] != Version {
		return 0, malformedf("unsupported version %d, want %d", data[4], Version)
	}
	kind := data[5]
	if kind != KindMatrix && kind != KindProfile && kind != KindEnv && kind != KindMutation {
		return 0, malformedf("unknown frame kind %d", kind)
	}
	// The dims stay uint32 until they pass MaxDim: converted to a 32-bit
	// int first, 0xffffffff would read as -1 and slip under the limit.
	rows := binary.LittleEndian.Uint32(data[6:])
	cols := binary.LittleEndian.Uint32(data[10:])
	// A mutation frame reuses rows as the op code and cols as the value
	// count; a value-free op (drop_task, drop_machine) legitimately has
	// cols == 0, so only the op byte is required to be non-zero here.
	if rows == 0 || (cols == 0 && kind != KindMutation) {
		return 0, malformedf("empty %dx%d frame", rows, cols)
	}
	if rows > MaxDim || cols > MaxDim {
		return 0, malformedf("dimensions %dx%d exceed the %d limit", rows, cols, MaxDim)
	}
	r, c := uint64(rows), uint64(cols)
	var payloadLen uint64
	switch kind {
	case KindMatrix:
		payloadLen = r * c * 8
	case KindProfile:
		payloadLen = profileFixedSize + (r+c)*8
	case KindEnv:
		payloadLen = (r*c + r + c) * 8
	case KindMutation:
		payloadLen = 8 + c*8 // index word + values
	}
	// Under MaxDim the size fits a uint64 but not always a 32-bit int.
	if payloadLen > math.MaxInt-HeaderSize {
		return 0, malformedf("%dx%d frame of %d payload bytes exceeds this platform's int", rows, cols, payloadLen)
	}
	return HeaderSize + int(payloadLen), nil
}

// ParseHeader validates the fixed header at the start of data and returns
// it with the payload sliced out. It checks magic, version, kind, dimension
// sanity and that data holds the full payload the header promises.
func ParseHeader(data []byte) (Header, error) {
	size, err := PeekFrameSize(data)
	if err != nil {
		return Header{}, err
	}
	if len(data) < size {
		return Header{}, malformedf("truncated payload: %dx%d frame needs %d bytes, have %d",
			binary.LittleEndian.Uint32(data[6:]), binary.LittleEndian.Uint32(data[10:]),
			size-HeaderSize, len(data)-HeaderSize)
	}
	return Header{
		Kind:    data[5],
		Rows:    int(binary.LittleEndian.Uint32(data[6:])),
		Cols:    int(binary.LittleEndian.Uint32(data[10:])),
		Payload: data[HeaderSize:size],
		Size:    size,
	}, nil
}

// Cell reads cell k of a matrix payload (row-major). It performs no bounds
// or NaN policing — it is the raw accessor under the validating decoders.
func Cell(payload []byte, k int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(payload[k*8:]))
}

// EncodedMatrixSize returns the frame size of an r×c matrix.
func EncodedMatrixSize(r, c int) int { return HeaderSize + r*c*8 }

func putHeader(dst []byte, kind byte, rows, cols int) {
	copy(dst, Magic)
	dst[4] = Version
	dst[5] = kind
	binary.LittleEndian.PutUint32(dst[6:], uint32(rows))
	binary.LittleEndian.PutUint32(dst[10:], uint32(cols))
}

// AppendMatrix appends the binary frame of m to dst and returns the extended
// slice. Entries must be finite or +Inf (the ETC "impossible pairing"
// convention); NaN and -Inf have no wire form and fail the encode, exactly
// as they fail the JSON "inf" encoding.
func AppendMatrix(dst []byte, m *matrix.Dense) ([]byte, error) {
	r, c := m.Dims()
	if r == 0 || c == 0 {
		return nil, malformedf("cannot encode an empty %dx%d matrix", r, c)
	}
	base := len(dst)
	dst = append(dst, make([]byte, EncodedMatrixSize(r, c))...)
	putHeader(dst[base:], KindMatrix, r, c)
	off := base + HeaderSize
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := m.At(i, j)
			if math.IsNaN(v) || math.IsInf(v, -1) {
				return nil, malformedf("entry (%d,%d) = %g has no wire form", i, j, v)
			}
			binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(v))
			off += 8
		}
	}
	return dst, nil
}

// EncodeMatrix writes the binary frame of m to w.
func EncodeMatrix(w io.Writer, m *matrix.Dense) error {
	buf, err := AppendMatrix(nil, m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// DecodeMatrix decodes one matrix frame from the front of data into a fresh
// matrix, returning it and the number of bytes consumed (trailing data is
// the caller's: concatenated frames compose).
func DecodeMatrix(data []byte) (*matrix.Dense, int, error) {
	var m matrix.Dense
	n, err := DecodeMatrixInto(&m, data)
	if err != nil {
		return nil, 0, err
	}
	return &m, n, nil
}

// DecodeMatrixInto decodes one matrix frame from the front of data into dst,
// resizing it in place (dst's backing slice is reused when its capacity
// allows — pair with a pooled matrix to ingest without allocating). It
// returns the number of bytes consumed. NaN and -Inf cells are rejected;
// +Inf passes through (impossible pairing).
func DecodeMatrixInto(dst *matrix.Dense, data []byte) (int, error) {
	h, err := ParseHeader(data)
	if err != nil {
		return 0, err
	}
	if h.Kind != KindMatrix {
		return 0, malformedf("frame kind %d is not a matrix", h.Kind)
	}
	dst.Reset(h.Rows, h.Cols)
	cells := h.Cells()
	for k := 0; k < cells; k++ {
		v := Cell(h.Payload, k)
		if math.IsNaN(v) || math.IsInf(v, -1) {
			return 0, malformedf("cell (%d,%d) = %g has no wire form", k/h.Cols, k%h.Cols, v)
		}
		dst.Set(k/h.Cols, k%h.Cols, v)
	}
	return h.Size, nil
}
