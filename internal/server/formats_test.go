package server

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/etcmat"
	"repro/internal/matrix"
	"repro/internal/wire"
)

// rawETCFrame encodes r×c ETC cells as one matrix frame without the
// encoder's checks, so NaN and -Inf cells reach the decoder as a hostile
// client would send them.
func rawETCFrame(t *testing.T, r, c int, cells []float64) []byte {
	t.Helper()
	frame, err := wire.AppendMatrix(nil, matrix.New(r, c))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range cells {
		binary.LittleEndian.PutUint64(frame[wire.HeaderSize+8*k:], math.Float64bits(v))
	}
	return frame
}

// etcText renders one ETC cell as the JSON and CSV forms spell it.
func etcText(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// decodeBinaryEnv runs a matrix frame through the served decode path: the
// scan a cache lookup needs, then the materialization a miss pays for. It
// returns the content key or the error the request would get.
func decodeBinaryEnv(t *testing.T, frame []byte) (etcmat.ContentKey, error) {
	t.Helper()
	p := acquirePayload()
	defer releasePayload(p)
	if err := p.parseBinaryEnv(frame); err != nil {
		return etcmat.ContentKey{}, err
	}
	env, err := p.env()
	if err != nil {
		return etcmat.ContentKey{}, err
	}
	defer env.ReleaseBuffers()
	if env.ContentKey() != p.key {
		t.Fatalf("materialized key differs from the scanned key")
	}
	return p.key, nil
}

// FuzzEnvFormats holds the decoders of one environment's three request
// forms to each other and to the reference decode. Every valid ETC matrix
// gets one content key from its binary matrix frame, its JSON etc form and
// its CSV form, and it is the key of wire.DecodeMatrix → etcmat.NewFromETC.
// Hostile frames — NaN, negative, zero, −0, -Inf, reciprocals that overflow,
// all-+Inf rows and columns — must be rejected exactly when the reference
// rejects them, with the reference's message.
func FuzzEnvFormats(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(0))
	f.Add(int64(2), uint8(5), uint8(69), uint8(0))
	f.Add(int64(3), uint8(0), uint8(0), uint8(1))
	f.Add(int64(4), uint8(4), uint8(7), uint8(2))
	f.Add(int64(5), uint8(3), uint8(66), uint8(3))
	f.Add(int64(6), uint8(6), uint8(5), uint8(0x1c))
	f.Add(int64(7), uint8(1), uint8(9), uint8(0x0c))
	f.Fuzz(func(t *testing.T, seed int64, rdim, cdim, hostile uint8) {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+int(rdim)%8, 1+int(cdim)%70
		inf := math.Inf(1)
		cells := make([]float64, r*c)
		for k := range cells {
			cells[k] = math.Ldexp(0.5+rng.Float64(), rng.Intn(60)-30)
			if rng.Intn(5) == 0 {
				cells[k] = inf
			}
		}
		if hostile&1 != 0 {
			i := rng.Intn(r)
			for j := 0; j < c; j++ {
				cells[i*c+j] = inf
			}
		}
		if hostile&2 != 0 {
			j := rng.Intn(c)
			for i := 0; i < r; i++ {
				cells[i*c+j] = inf
			}
		}
		specials := []float64{math.NaN(), -1.5, 0, math.Copysign(0, -1), math.Inf(-1), 5e-324, 1e-309, math.MaxFloat64}
		for n := int(hostile>>2) % 8; n > 0; n-- {
			cells[rng.Intn(len(cells))] = specials[rng.Intn(len(specials))]
		}
		frame := rawETCFrame(t, r, c, cells)

		got, err := decodeBinaryEnv(t, frame)
		var want etcmat.ContentKey
		etc, _, refErr := wire.DecodeMatrix(frame)
		if refErr != nil {
			// NaN and -Inf have no wire form; the served decode reports them
			// as the cells NewFromETC rejects.
			if err == nil {
				t.Fatalf("%dx%d: the reference decode rejects the frame (%v), the served decode accepts it", r, c, refErr)
			}
			etc = matrix.NewFromData(r, c, cells)
		}
		env, envErr := etcmat.NewFromETC(etc)
		if envErr == nil {
			want = env.ContentKey()
		}
		switch {
		case (err == nil) != (envErr == nil):
			t.Fatalf("%dx%d: served decode err %v, reference err %v", r, c, err, envErr)
		case err != nil && err.Error() != envErr.Error():
			t.Fatalf("%dx%d: served decode says %q, reference says %q", r, c, err, envErr)
		case err != nil:
			return
		case got != want:
			t.Fatalf("%dx%d: the binary frame's key differs from the reference key", r, c)
		}

		var js, csv strings.Builder
		js.WriteString(`{"etc":[`)
		csv.WriteString("task")
		for j := 0; j < c; j++ {
			csv.WriteString(",m" + strconv.Itoa(j+1))
		}
		for i := 0; i < r; i++ {
			if i > 0 {
				js.WriteByte(',')
			}
			js.WriteByte('[')
			csv.WriteString("\nt" + strconv.Itoa(i+1))
			for j := 0; j < c; j++ {
				if j > 0 {
					js.WriteByte(',')
				}
				v := etcText(cells[i*c+j])
				if v == "inf" {
					js.WriteString(`"inf"`)
				} else {
					js.WriteString(v)
				}
				csv.WriteString("," + v)
			}
			js.WriteByte(']')
		}
		js.WriteString("]}")
		csvJSON, err := json.Marshal(map[string]string{"csv": csv.String() + "\n"})
		if err != nil {
			t.Fatal(err)
		}
		for _, form := range []struct{ name, body string }{
			{"JSON etc", js.String()},
			{"CSV", string(csvJSON)},
		} {
			key, err := DecodeEnvContentKey([]byte(form.body), "application/json")
			if err != nil {
				t.Fatalf("%dx%d %s form: %v", r, c, form.name, err)
			}
			if key != want {
				t.Fatalf("%dx%d: the %s form's key differs from the binary frame's", r, c, form.name)
			}
		}
	})
}
