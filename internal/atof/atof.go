// Package atof reads a decimal number off the wire in one pass, to the
// bits strconv.ParseFloat returns. A token with a uint64 significand and a
// small exponent converts by exact integer and IEEE arithmetic, with no
// tables; strconv.ParseFloat, the oracle, converts every other token.
package atof

import (
	"math"
	"math/bits"
	"strconv"
	"unsafe"
)

// maxDigits is the most significant digits a uint64 holds exactly:
// 10^19 - 1 < 2^64.
const maxDigits = 19

// Parse scans the longest prefix of b that matches the JSON number
// grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and converts it.
// n is the token's length, 0 when b does not start with a number. ok is
// strconv.ParseFloat's success on the token: a range error ("1e400") is
// n > 0 and !ok, with strconv's value.
func Parse(b []byte) (v float64, n int, ok bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	// mant holds the first maxDigits significant digits, exp10 the power
	// of ten that scales them, nd the count of significant digits seen.
	var mant uint64
	exp10, nd := 0, 0
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && isDigit(b[i]); i++ {
			if nd++; nd <= maxDigits {
				mant = mant*10 + uint64(b[i]-'0')
			}
		}
	default:
		return 0, 0, false
	}
	if i+1 < len(b) && b[i] == '.' && isDigit(b[i+1]) {
		for i++; i < len(b) && isDigit(b[i]); i++ {
			if mant == 0 && b[i] == '0' { // a leading zero: scale only
				exp10--
			} else if nd++; nd <= maxDigits {
				mant = mant*10 + uint64(b[i]-'0')
				exp10--
			}
		}
	}
	if i+1 < len(b) && b[i]|0x20 == 'e' {
		j := i + 1
		eneg := b[j] == '-'
		if b[j] == '+' || eneg {
			j++
		}
		if j < len(b) && isDigit(b[j]) {
			e := 0
			for ; j < len(b) && isDigit(b[j]); j++ {
				if e < 10000 { // strconv saturates at the same place, so the two agree
					e = e*10 + int(b[j]-'0')
				}
			}
			if eneg {
				e = -e
			}
			exp10 += e
			i = j
		}
	}
	switch {
	case mant == 0: // ±0, whatever the exponent
	case nd <= maxDigits && mant < 1<<53 && -22 <= exp10 && exp10 <= 22:
		// Clinger's fast path: both operands are exact, so the one IEEE
		// operation rounds correctly.
		v = float64(mant)
		if exp10 >= 0 {
			v *= pow10[float64](exp10)
		} else {
			v /= pow10[float64](-exp10)
		}
	case nd <= maxDigits && -maxDigits <= exp10 && exp10 <= maxDigits:
		v = exact(mant, exp10)
	default:
		// strconv.ParseFloat does not retain its argument, so the
		// zero-copy view of b is safe.
		f, err := strconv.ParseFloat(unsafe.String(&b[0], i), 64)
		return f, i, err == nil
	}
	if neg {
		v = -v
	}
	return v, i, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// pow10 is 10^k by squaring. It is exact for k ≤ 22 in a float64 and
// k ≤ 19 in a uint64: every power it multiplies (10, 1e2, 1e4, 1e8, 1e16)
// and every product of them up to that bound is representable.
func pow10[T uint64 | float64](k int) T {
	p, x := T(1), T(10)
	for ; k > 0; k >>= 1 {
		if k&1 != 0 {
			p *= x
		}
		x *= x
	}
	return p
}

// exact rounds mant·10^e, |e| ≤ 19, to the nearest float64, ties to even.
// For e ≥ 0 the product is exact in 128 bits. For e < 0, mant shifted to
// the top of a word is divided by 10^-e into a 128-bit quotient, whose
// nonzero remainder is kept as a sticky bit.
func exact(mant uint64, e int) float64 {
	var hi, lo uint64
	var sticky bool
	shift := 0 // the value is (hi:lo + a sticky fraction) · 2^shift
	if e >= 0 {
		hi, lo = bits.Mul64(mant, pow10[uint64](e))
	} else {
		s := bits.LeadingZeros64(mant)
		d := pow10[uint64](-e)
		var r uint64
		hi, r = bits.Div64(0, mant<<s, d)
		lo, r = bits.Div64(r, 0, d)
		sticky = r != 0
		shift = -64 - s
	}
	// Shift hi:lo left by z so its leading bit is bit 127; top is its
	// upper word, and the lower word joins the sticky bit. A Go shift by
	// 64 or more gives 0, so one expression covers hi == 0 too.
	z := uint(bits.LeadingZeros64(hi))
	if hi == 0 {
		z = 64 + uint(bits.LeadingZeros64(lo))
	}
	top := hi<<z | lo>>(64-z) | lo<<(z-64)
	sticky = sticky || lo<<z != 0
	shift += 64 - int(z)
	m, rest := top>>11, top&(1<<11-1) // 53 bits, and the 11 rounded off
	if rest > 1<<10 || rest == 1<<10 && (sticky || m&1 == 1) {
		m++ // 1<<53 at most, still exact in a float64
	}
	return math.Ldexp(float64(m), shift+11)
}
