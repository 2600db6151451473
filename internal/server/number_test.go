package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// numberOracle states parseNumber's contract with encoding/json and
// strconv alone. The scan takes the longest prefix of b that can still
// begin a JSON number and never backs up, so "1.e5" is no number, not
// the number 1. end is that prefix's length when json.Valid calls it a
// whole number, else -1; v and ok are strconv.ParseFloat's verdict on
// it.
func numberOracle(b []byte) (v float64, end int, ok bool) {
	begins := func(p []byte) bool {
		if p[0] != '-' && (p[0] < '0' || p[0] > '9') || bytes.ContainsAny(p, " \t\n\r") {
			return false
		}
		return json.Valid(p) || json.Valid(append(p[:len(p):len(p)], '0'))
	}
	// The prefixes that begin a number are b[:0] to b[:n], so n is
	// found by bisection.
	n := sort.Search(len(b), func(k int) bool { return !begins(b[:k+1]) })
	if n == 0 || !json.Valid(b[:n]) {
		return 0, -1, false
	}
	v, err := strconv.ParseFloat(string(b[:n]), 64)
	return v, n, err == nil
}

// checkParseNumber fails t unless parseNumber agrees with numberOracle
// on b, read from offset 0 and from behind a one-byte prefix.
func checkParseNumber(t *testing.T, b []byte) {
	t.Helper()
	want, wantEnd, wantOK := numberOracle(b)
	for _, prefix := range []string{"", "["} {
		got, end, ok := parseNumber(append([]byte(prefix), b...), len(prefix))
		if end >= 0 {
			end -= len(prefix)
		}
		if end != wantEnd || ok != wantOK {
			t.Fatalf("%q after %q: end %d ok %v, want end %d ok %v", b, prefix, end, ok, wantEnd, wantOK)
		}
		if ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: %v (%#x), strconv.ParseFloat says %v (%#x)", b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

var numberSeeds = []string{
	"0", "-0", "1", "-1", "0.5", "1e5", "1E+5", "1e-5", "-2.5e3", "0.000123",
	"1.7976931348623157e308", "-1.7976931348623157e308", "1.7976931348623159e308",
	"5e-324", "4.9e-324", "2.4e-324", "2.5e-324", "2.2250738585072011e-308",
	"2.2250738585072014e-308", "1e-400", "-1e-400", "1e400", "-1e400",
	"0e999999", "-0e999999", "0.0000000000000000000000000", "1e0000000000000000000001",
	"1e-99999999999999999999", "1e99999999999999999999",
	"9007199254740993", "9007199254740992", "9007199254740994",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1234567890123456789", "12345678901234567890", "1234567890123456789012345",
	"0.1234567890123456789", "0.12345678901234567890123", "1.2345678901234567890123e-300",
	"123456789012345678901234567890e-30", "99999999999999999999e-20",
	"1e22", "1e23", "9007199254740991e22", "9007199254740993e-22",
	"01", ".5", "1.", "+1", "-", "1e", "1e+", "1.e5", "0x1p3", "Infinity", "NaN",
	"1.5.3", "1e5e", "1e5.", "1 ", " 1", "-a", "",
	// The exponent saturates near 10^4, as in ParseFloat, yet the
	// leading zeros bring this one back to 10^11111: +Inf, rejected.
	"0." + strings.Repeat("0", 1233) + "1e12345",
}

// FuzzParseNumber is parseNumber's differential check: on arbitrary
// bytes it must end where the JSON number grammar ends, reject exactly
// what json.Valid and strconv.ParseFloat reject, and return ParseFloat's
// float64 bit for bit.
func FuzzParseNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkParseNumber(t, b)
	})
}

func TestParseNumberSeeds(t *testing.T) {
	for _, s := range numberSeeds {
		checkParseNumber(t, []byte(s))
	}
}

// TestParseNumberMatchesStrconv formats seeded float64s, random bit
// patterns and standard normals, the way clients write them: strconv's
// shortest 'g', 'e' and 'f' at random precisions (which make long,
// truncated and halfway-adjacent mantissas) and json.Marshal's form.
// parseNumber must read each whole token and return ParseFloat's bits.
func TestParseNumberMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		for _, v := range []float64{math.Float64frombits(rng.Uint64()), rng.NormFloat64()} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			js, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range [][]byte{
				strconv.AppendFloat(nil, v, 'g', -1, 64),
				strconv.AppendFloat(nil, v, 'e', rng.Intn(26), 64),
				strconv.AppendFloat(nil, v, 'f', rng.Intn(26), 64),
				js,
			} {
				want, err := strconv.ParseFloat(string(s), 64)
				got, end, ok := parseNumber(s, 0)
				if end != len(s) || ok != (err == nil) {
					t.Fatalf("%s: end %d ok %v, want end %d ok %v", s, end, ok, len(s), err == nil)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: %v, strconv.ParseFloat says %v", s, got, want)
				}
			}
		}
	}
}

// The 128-bit table rows strconv's own table documents: its first and
// last rows and its worked example, 1e43.
func TestPow10Mantissas(t *testing.T) {
	for _, c := range []struct {
		e      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{0, 0, 1 << 63},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := pow10Mantissas[c.e-pow10MinExp10]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("1e%d: %#x, want {%#x, %#x}", c.e, got, c.lo, c.hi)
		}
	}
}
