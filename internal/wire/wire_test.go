package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/matrix"
)

func TestMatrixRoundTrip(t *testing.T) {
	m := matrix.FromRows([][]float64{
		{10, math.Inf(1), 7.25},
		{4e-300, 2, 9.000000000000002},
	})
	buf, err := AppendMatrix(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != EncodedMatrixSize(2, 3) {
		t.Fatalf("frame is %d bytes, want %d", len(buf), EncodedMatrixSize(2, 3))
	}
	got, n, err := DecodeMatrix(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	r, c := got.Dims()
	if r != 2 || c != 3 {
		t.Fatalf("decoded shape %dx%d, want 2x3", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(m.At(i, j)) {
				t.Errorf("cell (%d,%d) = %g, want %g (bits must survive)", i, j, got.At(i, j), m.At(i, j))
			}
		}
	}
	if !math.IsInf(got.At(0, 1), 1) {
		t.Errorf("impossible pairing lost: got %g", got.At(0, 1))
	}
}

func TestMatrixRejectsNaNAndNegInf(t *testing.T) {
	for name, v := range map[string]float64{"nan": math.NaN(), "-inf": math.Inf(-1)} {
		t.Run("encode "+name, func(t *testing.T) {
			if _, err := AppendMatrix(nil, matrix.FromRows([][]float64{{1, v}})); err == nil {
				t.Fatalf("%s must not have a wire form", name)
			}
		})
		t.Run("decode "+name, func(t *testing.T) {
			// Forge a frame carrying the forbidden value: decoders must police
			// cells, not just trust encoders.
			buf, err := AppendMatrix(nil, matrix.FromRows([][]float64{{1, 2}}))
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(buf[HeaderSize+8:], math.Float64bits(v))
			if _, _, err := DecodeMatrix(buf); !errors.Is(err, ErrMalformed) {
				t.Fatalf("decoding a forged %s cell: err = %v, want ErrMalformed", name, err)
			}
		})
	}
}

// TestMatrixGoldenBytes pins the exact header layout; any change here is a
// wire-format break and needs a version bump, not a test update.
func TestMatrixGoldenBytes(t *testing.T) {
	m := matrix.FromRows([][]float64{{1, 2, 3}, {4, 5, math.Inf(1)}})
	buf, err := AppendMatrix(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	goldenHeader := []byte{
		'H', 'C', 'M', 'X', // magic
		1,          // version
		1,          // kind = matrix
		2, 0, 0, 0, // rows, uint32 LE
		3, 0, 0, 0, // cols, uint32 LE
	}
	if !bytes.Equal(buf[:HeaderSize], goldenHeader) {
		t.Errorf("header drifted:\n got  % x\n want % x", buf[:HeaderSize], goldenHeader)
	}
	// First cell: float64(1) little-endian; last cell: +Inf.
	if got := binary.LittleEndian.Uint64(buf[HeaderSize:]); got != math.Float64bits(1) {
		t.Errorf("cell (0,0) bytes = %#x, want %#x", got, math.Float64bits(1))
	}
	if got := binary.LittleEndian.Uint64(buf[len(buf)-8:]); got != math.Float64bits(math.Inf(1)) {
		t.Errorf("cell (1,2) bytes = %#x, want +Inf bits %#x", got, math.Float64bits(math.Inf(1)))
	}
}

func TestParseHeaderRejects(t *testing.T) {
	valid, err := AppendMatrix(nil, matrix.FromRows([][]float64{{1, 2}, {3, 4}}))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), valid...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"empty":             nil,
		"truncated header":  valid[:HeaderSize-1],
		"truncated payload": valid[:len(valid)-1],
		"bad magic":         corrupt(func(b []byte) { b[0] = 'X' }),
		"bad version":       corrupt(func(b []byte) { b[4] = 99 }),
		"bad kind":          corrupt(func(b []byte) { b[5] = 7 }),
		"zero rows":         corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[6:], 0) }),
		"zero cols":         corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[10:], 0) }),
		// Oversized dims: the payload length would be ~32 EiB; the parser must
		// reject via MaxDim before any multiplication can wrap.
		"huge dims": corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[6:], 0xffffffff)
			binary.LittleEndian.PutUint32(b[10:], 0xffffffff)
		}),
		// Dims at the limit: 2⁵⁹ payload bytes pass MaxDim but overflow a
		// 32-bit int, where the size must not wrap to a small frame.
		"limit dims": corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[6:], MaxDim)
			binary.LittleEndian.PutUint32(b[10:], MaxDim)
		}),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseHeader(data); !errors.Is(err, ErrMalformed) {
				t.Errorf("err = %v, want ErrMalformed", err)
			}
		})
	}
}

func TestFrameConcatenation(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 2}})
	b := matrix.FromRows([][]float64{{3}, {4}, {5}})
	buf, err := AppendMatrix(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if buf, err = AppendMatrix(buf, b); err != nil {
		t.Fatal(err)
	}
	ga, n, err := DecodeMatrix(buf)
	if err != nil {
		t.Fatal(err)
	}
	gb, n2, err := DecodeMatrix(buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	if n+n2 != len(buf) {
		t.Errorf("frames consumed %d+%d of %d bytes", n, n2, len(buf))
	}
	if r, c := ga.Dims(); r != 1 || c != 2 {
		t.Errorf("first frame %dx%d, want 1x2", r, c)
	}
	if r, c := gb.Dims(); r != 3 || c != 1 || gb.At(2, 0) != 5 {
		t.Errorf("second frame %dx%d (last=%g), want 3x1 (5)", r, c, gb.At(2, 0))
	}
}

func TestDecodeMatrixIntoReuses(t *testing.T) {
	big, err := AppendMatrix(nil, matrix.FromRows([][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}))
	if err != nil {
		t.Fatal(err)
	}
	small, err := AppendMatrix(nil, matrix.FromRows([][]float64{{9, 10}}))
	if err != nil {
		t.Fatal(err)
	}
	var dst matrix.Dense
	if _, err := DecodeMatrixInto(&dst, big); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMatrixInto(&dst, small); err != nil {
		t.Fatal(err)
	}
	if r, c := dst.Dims(); r != 1 || c != 2 || dst.At(0, 0) != 9 || dst.At(0, 1) != 10 {
		t.Errorf("reused decode = %dx%d %v, want 1x2 [9 10]", r, c, dst)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Profile
	}{
		{"standardizable", Profile{
			Tasks: 3, Machines: 2,
			MPH: 0.5, TDH: 0.25, TMA: 0.125, TMAValid: true,
			RatioR: 1.5, GeoMeanG: 2.5, COV: 0.75,
			SinkhornIterations: 42, Trimmed: 1, Cached: true,
			MachinePerf: []float64{1, 2},
			TaskDiff:    []float64{3, 4, 5},
		}},
		{"no tma", Profile{
			Tasks: 1, Machines: 1,
			MPH: 1, TDH: 1, TMAValid: false,
			MachinePerf: []float64{1},
			TaskDiff:    []float64{1},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf, err := AppendProfile(nil, &tc.p)
			if err != nil {
				t.Fatal(err)
			}
			if len(buf) != EncodedProfileSize(tc.p.Tasks, tc.p.Machines) {
				t.Fatalf("frame is %d bytes, want %d", len(buf), EncodedProfileSize(tc.p.Tasks, tc.p.Machines))
			}
			got, n, err := DecodeProfile(buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(buf) {
				t.Errorf("consumed %d of %d bytes", n, len(buf))
			}
			if !tc.p.TMAValid {
				if !math.IsNaN(got.TMA) {
					t.Errorf("invalid TMA decoded as %g, want NaN", got.TMA)
				}
				got.TMA = tc.p.TMA // normalize for the struct comparison below
			}
			want := tc.p
			if !profilesEqual(got, &want) {
				t.Errorf("round trip drifted:\n got  %+v\n want %+v", got, &want)
			}
		})
	}
}

func profilesEqual(a, b *Profile) bool {
	if a.Tasks != b.Tasks || a.Machines != b.Machines ||
		a.MPH != b.MPH || a.TDH != b.TDH || a.TMA != b.TMA ||
		a.RatioR != b.RatioR || a.GeoMeanG != b.GeoMeanG || a.COV != b.COV ||
		a.SinkhornIterations != b.SinkhornIterations || a.Trimmed != b.Trimmed ||
		a.Cached != b.Cached || a.TMAValid != b.TMAValid ||
		len(a.MachinePerf) != len(b.MachinePerf) || len(a.TaskDiff) != len(b.TaskDiff) {
		return false
	}
	for i := range a.MachinePerf {
		if a.MachinePerf[i] != b.MachinePerf[i] {
			return false
		}
	}
	for i := range a.TaskDiff {
		if a.TaskDiff[i] != b.TaskDiff[i] {
			return false
		}
	}
	return true
}

func TestProfileVectorLengthMismatch(t *testing.T) {
	p := Profile{Tasks: 2, Machines: 2, MachinePerf: []float64{1}, TaskDiff: []float64{1, 2}}
	if _, err := AppendProfile(nil, &p); err == nil {
		t.Fatal("mismatched vectors must not encode")
	}
}

// FuzzWireDecode feeds arbitrary bytes to the matrix and mutation decoders.
// The invariants: never panic, and any accepted frame re-encodes to exactly
// the bytes consumed (the format has one representation per frame).
func FuzzWireDecode(f *testing.F) {
	seed, _ := AppendMatrix(nil, matrix.FromRows([][]float64{{1, math.Inf(1)}, {3, 4}}))
	f.Add(seed)
	f.Add(seed[:HeaderSize-3])
	f.Add(append(append([]byte(nil), seed...), 0xde, 0xad))
	huge := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(huge[6:], 0x7fffffff)
	f.Add(huge)
	for _, m := range []Mutation{
		{Op: MutAddTask, Task: -1, Machine: -1, Values: []float64{1, 2}},
		{Op: MutDropTask, Task: 3, Machine: -1},
		{Op: MutSetCell, Task: 1, Machine: 2, Values: []float64{1.5}},
		{Op: MutMachineWeights, Task: -1, Machine: -1, Values: []float64{1}},
	} {
		ms, _ := AppendMutation(nil, m)
		f.Add(ms)
		f.Add(ms[:len(ms)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := DecodeMatrix(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("decode error %v does not wrap ErrMalformed", err)
			}
		} else {
			if n < HeaderSize || n > len(data) {
				t.Fatalf("consumed %d bytes of %d", n, len(data))
			}
			re, err := AppendMatrix(nil, m)
			if err != nil {
				t.Fatalf("re-encoding an accepted frame failed: %v", err)
			}
			if !bytes.Equal(re, data[:n]) {
				t.Fatalf("re-encode mismatch:\n got  % x\n want % x", re, data[:n])
			}
		}
		mut, n, err := DecodeMutation(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("mutation decode error %v does not wrap ErrMalformed", err)
			}
			return
		}
		if n < HeaderSize || n > len(data) {
			t.Fatalf("mutation consumed %d bytes of %d", n, len(data))
		}
		re, err := AppendMutation(nil, mut)
		if err != nil {
			t.Fatalf("re-encoding an accepted mutation failed: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("mutation re-encode mismatch:\n got  % x\n want % x", re, data[:n])
		}
	})
}
