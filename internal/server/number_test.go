package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/etcmat"
	"repro/internal/gen"
)

// numberOutcome is everything a number read decides: the value's bits, where
// the scanner stops, and the error text.
type numberOutcome struct {
	bits uint64
	end  int
	err  string
}

func readNumberWith(data []byte, read func(*jsonScanner) (float64, error)) numberOutcome {
	s := &jsonScanner{data: data}
	v, err := read(s)
	if err != nil {
		return numberOutcome{end: s.pos, err: err.Error()}
	}
	return numberOutcome{bits: math.Float64bits(v), end: s.pos}
}

// fusedAndStrconv reads data through the fused readFloat and through the
// tokenize-then-strconv path it falls back to.
func fusedAndStrconv(data []byte) (fused, ref numberOutcome) {
	return readNumberWith(data, (*jsonScanner).readFloat),
		readNumberWith(data, (*jsonScanner).readFloatStrconv)
}

// numberEdgeCases are the inputs at the edges of the fused grammar and of
// float64 itself; they seed both fuzz targets too.
var numberEdgeCases = []string{
	"0", "-0", "0.0", "-0.0", "0e999", "-0e-999",
	"+1", ".5", "1.", "1.e3", "01", "-01.50",
	"1e400", "1e-400", "-1e400",
	"4.9e-324", "2.4703282292062328e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
	"9007199254740993", "9007199254740992", "1.7976931348623157e308", "1.7976931348623159e308",
	"1234567890123456789012345", "0.1234567890123456789012345", "10000000000000000000000000",
	"1e+0000000000000000000005", "1E-5", "123.456e-2",
	"-", "1e", "1e+", "1e5e", "1.2.3", "--1", "1-", "e5", ".", "",
	"123456789012345678", "1234567890123456789", "12345678901234567890",
	"4503599627370496", "4503599627370497e22", "1e22", "1e23", "1e-22", "1e-23",
	"0.30000000000000004", "5e-324", "3e-324", "1.5e-323",
}

// TestNumberEdgeCases pins the fused number parser against the strconv path
// it replaces on the table above (same bits, same end, same error), and
// checks the outcomes the serving tier's behaviour rests on.
func TestNumberEdgeCases(t *testing.T) {
	for _, tok := range numberEdgeCases {
		for _, tail := range []string{"", ",", "]", " ,"} {
			data := []byte(tok + tail)
			fused, ref := fusedAndStrconv(data)
			if fused != ref {
				t.Errorf("%q: fused %+v, strconv %+v", data, fused, ref)
			}
		}
	}

	value := func(tok string) (float64, error) {
		return (&jsonScanner{data: []byte(tok)}).readFloat()
	}
	accepted := map[string]float64{
		"+1": 1, ".5": 0.5, "1.": 1, "1.e3": 1000, "01": 1,
		"1e-400":                    0,
		"1e+0000000000000000000005": 1e5,
		"9007199254740993":          9007199254740992, // halfway: ties to even
		"4.9e-324":                  math.SmallestNonzeroFloat64,
		"2.2250738585072011e-308":   math.Float64frombits(0x000FFFFFFFFFFFFF),
		"1234567890123456789012345": 1.2345678901234568e24,
	}
	for tok, want := range accepted {
		got, err := value(tok)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%q = %v, %v; want %v", tok, got, err, want)
		}
	}
	if v, err := value("-0"); err != nil || !math.Signbit(v) || v != 0 {
		t.Errorf(`"-0" = %v, %v; want negative zero`, v, err)
	}
	for _, tok := range []string{"1e400", "1.7976931348623159e308", "-", "1e", "1e5e"} {
		if _, err := value(tok); err == nil || !strings.HasPrefix(err.Error(), "invalid number") {
			t.Errorf("%q: err %v, want invalid number", tok, err)
		}
	}

	// 1e-400 underflows to 0, so as an ETC cell it fails the value check,
	// not the tokenizer.
	p := acquirePayload()
	defer releasePayload(p)
	err := p.parseJSONEnv([]byte(`{"etc":[[1e-400,1]]}`))
	if !errors.Is(err, etcmat.ErrInvalid) || !strings.Contains(err.Error(), "ETC(0,0) = 0 must be positive") {
		t.Errorf("1e-400 ETC cell: %v, want a value-constraint error", err)
	}
}

// TestNumberRandomTokens compares the two paths on formatted floats of
// every magnitude and on hand-built digit strings.
func TestNumberRandomTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 20000; k++ {
		var tok string
		switch k % 4 {
		case 0:
			tok = strconv.FormatFloat(math.Float64frombits(rng.Uint64()), 'g', -1, 64)
		case 1:
			tok = strconv.FormatFloat(rng.Float64()*1000, 'f', rng.Intn(20), 64)
		case 2:
			tok = strconv.FormatFloat(rng.ExpFloat64(), 'e', rng.Intn(19), 64)
		default:
			tok = strconv.FormatInt(rng.Int63n(1e10), 10) + "." +
				strconv.FormatInt(rng.Int63n(1e10), 10) + "e" + strconv.Itoa(rng.Intn(700)-350)
		}
		if fused, ref := fusedAndStrconv([]byte(tok)); fused != ref {
			t.Fatalf("%q: fused %+v, strconv %+v", tok, fused, ref)
		}
	}
}

// TestPow10TableRows recomputes 10^q truncated to 128 bits with big.Float,
// independently of buildPow10Table's integer construction, and checks every
// row plus a few known ones.
func TestPow10TableRows(t *testing.T) {
	ten := big.NewInt(10)
	for q := pow10Min; q <= pow10Max; q++ {
		p := new(big.Int).Exp(ten, big.NewInt(int64(abs(q))), nil)
		exact := new(big.Float).SetPrec(uint(p.BitLen())).SetInt(p)
		f := new(big.Float).SetPrec(128).SetMode(big.ToZero) // truncates
		if q < 0 {
			f.Quo(big.NewFloat(1), exact)
		} else {
			f.Set(exact)
		}
		mant := new(big.Float).SetMantExp(f, -f.MantExp(nil)+128) // now in [2^127, 2^128)
		m, acc := mant.Int(nil)
		if acc != big.Exact {
			t.Fatalf("1e%d: mantissa not integral", q)
		}
		if got, want := pow10Table[q-pow10Min], split128(m); got != want {
			t.Fatalf("1e%d: table %#x, want %#x", q, got, want)
		}
	}
	if got := pow10Table[0-pow10Min]; got != [2]uint64{0x8000000000000000, 0} {
		t.Errorf("1e0 = %#x", got)
	}
	if got := pow10Table[43-pow10Min][0]; got != 0xE596B7B0C643C719 {
		t.Errorf("1e43 hi = %#x, want 0xE596B7B0C643C719", got)
	}
	// 10^q = 5^q·2^q and 5^27 < 2^64: rows 0…27 are exact in the high word.
	for q := 0; q <= 27; q++ {
		row := pow10Table[q-pow10Min]
		p := new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(q)), nil)
		if row[1] != 0 || row[0]>>(64-p.BitLen()) != p.Uint64() || row[0]<<p.BitLen() != 0 {
			t.Errorf("1e%d = %#x is not 5^%d exactly", q, row, q)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// nameFreeETCBody is a 150×80 range-based ETC body without names, the
// shape of the serving benchmark's requests.
func nameFreeETCBody(t testing.TB) []byte {
	t.Helper()
	env, err := gen.RangeBased(150, 80, 100, 10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	dto := EnvToDTO(env)
	dto.TaskNames, dto.MachineNames = nil, nil
	body, err := json.Marshal(dto)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestJSONDecodeZeroAlloc pins the fused path's point: a warm decode of a
// name-free ETC body — every cell parsed, hashed and buffered — allocates
// nothing once the pooled cell buffer is sized.
func TestJSONDecodeZeroAlloc(t *testing.T) {
	body := nameFreeETCBody(t)
	p := acquirePayload()
	defer releasePayload(p)
	if err := p.parseJSONEnv(body); err != nil {
		t.Fatalf("warmup decode: %v", err)
	}
	avg := testing.AllocsPerRun(20, func() {
		p.reset()
		if err := p.parseJSONEnv(body); err != nil {
			t.Fatalf("warm decode: %v", err)
		}
	})
	if avg != 0 {
		t.Errorf("warm JSON decode allocates %.1f objects per run, want 0", avg)
	}
}

// BenchmarkJSONDecode measures a warm request's decode: a 150×80 ETC body
// to its content key on a pooled payload.
func BenchmarkJSONDecode(b *testing.B) {
	body := nameFreeETCBody(b)
	p := acquirePayload()
	defer releasePayload(p)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.reset()
		if err := p.parseJSONEnv(body); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzParseNumber checks that the fused readFloat and the tokenize-then-
// strconv path agree on every input: same end position, same accept or
// reject (and error), same bits.
func FuzzParseNumber(f *testing.F) {
	for _, tok := range numberEdgeCases {
		f.Add([]byte(tok))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if fused, ref := fusedAndStrconv(data); fused != ref {
			t.Fatalf("%q: fused %+v, strconv %+v", data, fused, ref)
		}
	})
}

// FuzzEnvJSON checks the scanner path (the parse DecodeEnvContentKey runs,
// then env() as a cache miss runs it) against the reference — encoding/json
// into the DTO, Env(), ContentKey() — on arbitrary bodies: both reject, or
// both accept with the same key.
//
// Three kinds of body are skipped. The scanner accepts number forms JSON
// forbids (strconv's superset), so only bodies json.Valid accepts are
// compared. It rejects a repeated etc/ecs key where encoding/json keeps the
// last. And encoding/json replaces invalid UTF-8 in strings with U+FFFD,
// which the scanner keeps byte for byte; names are not hashed, but they are
// checked for duplicates.
func FuzzEnvJSON(f *testing.F) {
	f.Add([]byte(envBody))
	f.Add([]byte(`{"ecs":[[0.5,0,2.25],[1e-3,4,0.125]]}`))
	f.Add([]byte(`{"etc":[[1,"inf"],[3,4]],"taskWeights":[2,3],"machineWeights":[1,4]}`))
	f.Add([]byte(`{"csv":"task,m1,m2\na,10,20\nb,30,15\n"}`))
	f.Add([]byte(`{"ETC":[[1,2]],"taskNames":["a"]}`))
	f.Add([]byte(`{"ecs":null,"etc":[[1,2]],"taskNames":null,"csv":null,"x":[1e999]}`))
	f.Add([]byte(`{"ecs":[[null,1]],"taskNames":[null],"machineNames":["a",null]}`))
	f.Add([]byte(`{"etc":[[null,1]],"taskWeights":[null]}`))
	for _, tok := range numberEdgeCases {
		f.Add([]byte(`{"etc":[[` + tok + `,1]]}`))
		f.Add([]byte(`{"ecs":[[1],[` + tok + `]],"taskWeights":[` + tok + `,1]}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if !json.Valid(body) || !utf8.Valid(body) || envJSONDivergent(body) {
			t.Skip()
		}
		var dto EnvDTO
		var refErr error
		var want etcmat.ContentKey
		if refErr = json.Unmarshal(body, &dto); refErr == nil {
			var env *etcmat.Env
			if env, refErr = dto.Env(); refErr == nil {
				want = env.ContentKey()
			}
		}
		// The scanner path defers the checks that need the whole matrix
		// (an all-zero row, an ETC cell whose reciprocal overflows) to env(),
		// which a served request reaches on a cache miss.
		p := acquirePayload()
		defer releasePayload(p)
		err := p.parseJSONEnv(body)
		got := p.key
		if err == nil {
			var env *etcmat.Env
			if env, err = p.env(); err == nil && env.ContentKey() != got {
				t.Fatalf("%q: materialized key differs from scanned key", body)
			}
		}
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("%q: scanner err %v, reference err %v", body, err, refErr)
		case err == nil && got != want:
			t.Fatalf("%q: scanner key differs from reference key", body)
		}
	})
}

// envJSONDivergent reports whether a valid JSON body is an object that
// repeats its etc or ecs key, matched case-insensitively as encoding/json
// matches keys.
func envJSONDivergent(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return false
		}
		if field := matchField([]byte(tok.(string)), envFields); field == "etc" || field == "ecs" {
			if seen[field] {
				return true
			}
			seen[field] = true
		}
	}
	return false
}
