package server

import (
	"math"
	"math/big"
	"math/bits"
)

// This file is the scanner's fused number parser. A matrix cell is read in
// one pass over its bytes: the digits accumulate into a uint64 mantissa and
// a decimal exponent as they are recognized, and the float is then built by
// Clinger's exact path or the Eisel–Lemire algorithm. Every input those two
// cannot settle bit-exactly is left to the scanner's strconv.ParseFloat
// path, so the fused parser changes the cost of a number, never its value,
// its token boundary or its error.

// maxMantDigits is the most significant decimal digits a uint64 mantissa
// holds without overflow (10^19 < 2^64).
const maxMantDigits = 19

// exactPow10 holds the powers of ten a float64 represents exactly; Clinger's
// fast path multiplies or divides by one of them.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// pow10Min and pow10Max bound the decimal exponents pow10Table covers. Any
// nonzero float64 written with at most 19 significant digits has its
// exponent inside this range or overflows/underflows outright.
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10Table[q-pow10Min] is 10^q as a 128-bit mantissa {hi, lo}, rounded
// down and normalized so hi's top bit is set: 10^q ≈ (hi·2^64 + lo) · 2^e
// with e = ⌊q·log2(10)⌋ − 127. It is computed once at package init from
// exact big-integer arithmetic rather than vendored.
var pow10Table = buildPow10Table()

func buildPow10Table() *[pow10Max - pow10Min + 1][2]uint64 {
	var t [pow10Max - pow10Min + 1][2]uint64
	ten := big.NewInt(10)
	p := big.NewInt(1) // 10^|q|, grown one factor per row
	m := new(big.Int)
	for q := 0; q <= -pow10Min; q++ {
		if q > 0 {
			p.Mul(p, ten)
		}
		if q <= pow10Max {
			// 10^q shifted to exactly 128 bits; a right shift truncates.
			if n := p.BitLen(); n > 128 {
				m.Rsh(p, uint(n-128))
			} else {
				m.Lsh(p, uint(128-n))
			}
			t[q-pow10Min] = split128(m)
		}
		if q > 0 {
			// 10^-q = 2^k / 10^q; with k = 127 + bitlen(10^q) the quotient
			// lies strictly between 2^127 and 2^128 (10^q is no power of two),
			// so its floor is the 128-bit mantissa rounded down.
			m.Lsh(big.NewInt(1), uint(127+p.BitLen()))
			m.Quo(m, p)
			t[-q-pow10Min] = split128(m)
		}
	}
	return &t
}

// split128 returns a 128-bit big.Int as {hi, lo} words.
func split128(m *big.Int) [2]uint64 {
	var b [16]byte
	m.FillBytes(b[:])
	var hi, lo uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(b[i])
		lo = lo<<8 | uint64(b[8+i])
	}
	return [2]uint64{hi, lo}
}

// parseNumber reads one number starting at data[i] under the grammar
// -?digits(.digits)?([eE][+-]?digits)? and returns its value and the index
// just past it. ok=false means the fast path declines the token — a form
// outside that grammar (a leading '+' or '.', a bare "1."), more than 19
// significant digits, a number byte trailing the grammar, an overflow or
// underflow, or an Eisel–Lemire ambiguity — and the caller must re-read it
// with strconv. When ok is true the value is bit-identical to what
// strconv.ParseFloat returns for the same maximal number-byte run.
func parseNumber(data []byte, i int) (v float64, end int, ok bool) {
	neg := false
	if i < len(data) && data[i] == '-' {
		neg = true
		i++
	}
	var mant uint64
	nd, exp := 0, 0 // significant digits held in mant; decimal exponent
	start := i
	for ; i < len(data); i++ {
		c := data[i] - '0'
		if c > 9 {
			break
		}
		if nd < maxMantDigits {
			mant = mant*10 + uint64(c)
			if mant != 0 {
				nd++
			}
		} else if c != 0 {
			return 0, 0, false
		} else {
			exp++
		}
	}
	if i == start {
		return 0, 0, false
	}
	if i < len(data) && data[i] == '.' {
		i++
		start = i
		for ; i < len(data); i++ {
			c := data[i] - '0'
			if c > 9 {
				break
			}
			if nd < maxMantDigits {
				mant = mant*10 + uint64(c)
				if mant != 0 {
					nd++
				}
				exp--
			} else if c != 0 {
				return 0, 0, false
			}
		}
		if i == start {
			return 0, 0, false
		}
	}
	if i < len(data) && data[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			eneg = data[i] == '-'
			i++
		}
		start = i
		e := 0
		for ; i < len(data); i++ {
			c := data[i] - '0'
			if c > 9 {
				break
			}
			if e < 10000 { // saturate like strconv: far outside float64 range
				e = e*10 + int(c)
			}
		}
		if i == start {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if i < len(data) && isNumByte(data[i]) {
		return 0, 0, false
	}
	// Clinger: the mantissa and 10^|exp| are both exact float64s, so one
	// IEEE multiply or divide rounds the exact product correctly.
	if mant>>52 == 0 && exp >= -22 && exp <= 22 {
		f := float64(mant)
		if neg {
			f = -f
		}
		if exp >= 0 {
			return f * exactPow10[exp], i, true
		}
		return f / exactPow10[-exp], i, true
	}
	f, ok := eiselLemire(mant, exp, neg)
	if !ok {
		return 0, 0, false
	}
	return f, i, true
}

// eiselLemire converts man·10^exp10 to the nearest float64 using the
// truncated 128-bit power of ten, after Lemire, "Number Parsing at a
// Gigabyte per Second" (2021), in the form Nigel Tao describes for Wuffs.
// ok=false means the product is too close to a rounding boundary to decide
// from 128 bits, or the result is subnormal, zero or infinite; the caller
// then takes the slow path.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &pow10Table[exp10-pow10Min]

	// Normalize the mantissa so its top bit is set; the binary exponent is
	// ⌊exp10·log2(10)⌋ (217706/2^16 ≈ log2 10) plus the bias, less the shift.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	retExp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	// The high 64 bits of the power settle the product unless its low 9
	// bits are all ones and a carry from the discarded part could still
	// ripple in; then widen to all 128 bits of the power.
	xHi, xLo := bits.Mul64(man, pow[0])
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[1])
		mHi, mLo := xHi, xLo+yHi
		if mLo < xLo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mHi, mLo
	}

	// Keep 54 bits: 53 for the result and one to round with.
	msb := xHi >> 63
	retMant := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// An exact halfway product cannot be told from a near-halfway one.
	if xLo == 0 && xHi&0x1FF == 0 && retMant&3 == 1 {
		return 0, false
	}

	// Round to nearest on the 54th bit and renormalize on carry.
	retMant += retMant & 1
	retMant >>= 1
	if retMant>>53 > 0 {
		retMant >>= 1
		retExp2++
	}
	// retExp2 is unsigned: 0 or a wrapped negative is subnormal or zero,
	// 0x7FF and above is infinite.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := retExp2<<52 | retMant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
