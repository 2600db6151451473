package server

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"unsafe"
)

// parseNumber reads the JSON number
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? at b[i:] in one pass
// and converts it to exactly the float64 strconv.ParseFloat returns for
// that token. end is the index just past the token, or -1 when b[i:]
// does not start with one. ok is false in that case and wherever
// ParseFloat fails, which for a JSON number means the value overflows.
//
// The digits are collected as the integer man with value man×10^exp10,
// which toFloat64 converts exactly. A token with more than 19
// significant digits, or one toFloat64 cannot decide, goes to
// strconv.ParseFloat.
func parseNumber(b []byte, i int) (v float64, end int, ok bool) {
	start := i
	neg := at(b, i, '-')
	if neg {
		i++
	}
	digits := i
	var man uint64 // wraps past 19 digits; nd says when
	switch {
	case at(b, i, '0'):
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
	default:
		return 0, -1, false
	}
	nd := i - digits
	exp10 := 0
	if at(b, i, '.') {
		i++
		frac := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		if i == frac {
			return 0, -1, false
		}
		nd += i - frac
		exp10 = frac - i
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		expNeg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			expNeg = b[i] == '-'
			i++
		}
		expDigits := i
		e := 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			// ParseFloat saturates the exponent the same way, so exp10
			// is always its decimal exponent too.
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == expDigits {
			return 0, -1, false
		}
		if expNeg {
			e = -e
		}
		exp10 += e
	}
	if nd > 19 {
		// The zeros of a "0.000…" prefix are not significant digits.
		for j := digits; j < i && (b[j] == '0' || b[j] == '.'); j++ {
			if b[j] == '0' {
				nd--
			}
		}
	}
	if nd <= 19 {
		if v, ok := toFloat64(man, exp10, neg); ok {
			return v, i, true
		}
	}
	// ParseFloat copies the token into any error it returns, so the
	// unsafe view never escapes.
	v, err := strconv.ParseFloat(unsafe.String(&b[start], i-start), 64)
	return v, i, err == nil
}

// toFloat64 returns ±man×10^exp10 rounded to the nearest float64, or
// ok = false when neither of its two exact methods can decide it.
// Clinger's fast path applies when man and 10^|exp10| are both exact
// float64s, so one IEEE multiplication or division rounds correctly;
// Eisel–Lemire covers the rest of the finite, normal range.
func toFloat64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f = float64(man)
		if neg {
			f = -f
		}
		if exp10 < 0 {
			return f / exactPow10[-exp10], true
		}
		return f * exactPow10[exp10], true
	}
	return eiselLemire64(man, exp10, neg)
}

// exactPow10[k] is 10^k, exact in float64 for k ≤ 22.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// eiselLemire64 is the Eisel–Lemire conversion (D. Lemire, "Number
// Parsing at a Gigabyte per Second", 2021) of ±man×10^exp10. It returns
// ok = false when the 128-bit product cannot settle the rounding (a
// halfway case or too little precision), or when the result would be
// subnormal, infinite or outside the table.
//
// The function is derived from eiselLemire64 in Go's
// src/strconv/eisel_lemire.go, Copyright 2020 The Go Authors, used
// under the BSD-style license in the Go distribution's LICENSE file.
// Its section comments name the steps of
// https://nigeltao.github.io/blog/2020/eisel-lemire.html.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < pow10MinExp10 || pow10MaxExp10 < exp10 {
		return 0, false
	}
	pow := &pow10Mantissas[exp10-pow10MinExp10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// retExp2 is a uint64: 0 or an underflow means a subnormal, 0x7FF
	// or above means Inf/NaN.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}

// The powers of ten eiselLemire64 can use, inclusive.
const (
	pow10MinExp10 = -348
	pow10MaxExp10 = +347
)

// pow10Mantissas[e-pow10MinExp10] is {low, high} 64 bits of 10^e's
// 128-bit mantissa: 10^e scaled by a power of two into [2^127, 2^128)
// and rounded down. The exponent of that power of two is implied by
// eiselLemire64's 217706/65536 ≈ log2(10) slope. The table is computed
// once, with exact integer arithmetic.
var pow10Mantissas = func() (t [pow10MaxExp10 - pow10MinExp10 + 1][2]uint64) {
	set := func(e int, m *big.Int) {
		if s := m.BitLen() - 128; s > 0 {
			m.Rsh(m, uint(s))
		} else {
			m.Lsh(m, uint(-s))
		}
		t[e-pow10MinExp10] = [2]uint64{m.Uint64(), new(big.Int).Rsh(m, 64).Uint64()}
	}
	p := big.NewInt(1) // 10^n
	for n := 0; n <= -pow10MinExp10; n++ {
		if n <= pow10MaxExp10 {
			set(n, new(big.Int).Set(p))
		}
		if n > 0 {
			// 2^(BitLen+128) / 10^n lies in (2^128, 2^129), so the
			// floored quotient keeps every bit the mantissa needs.
			q := new(big.Int).Lsh(big.NewInt(1), uint(p.BitLen()+128))
			set(-n, q.Quo(q, p))
		}
		p.Mul(p, big.NewInt(10))
	}
	return t
}()
