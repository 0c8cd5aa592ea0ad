// Package atof reads a decimal number off the wire in one pass, to the
// bits strconv.ParseFloat returns. A token of at most 19 significant
// digits converts by Clinger's fast path (a significand below 2^53, an
// exponent within ±22) or by Eisel–Lemire over a 39-row table of 128-bit
// powers of ten (an exponent within ±19); strconv.ParseFloat, the oracle,
// converts every other token and every one Eisel–Lemire finds ambiguous.
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
			v *= float64pow10[exp10]
		} else {
			v /= float64pow10[-exp10]
		}
	case nd <= maxDigits && -maxDigits <= exp10 && exp10 <= maxDigits:
		if v, ok = eiselLemire(mant, exp10); ok {
			break
		}
		fallthrough
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

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// eiselLemire rounds mant·10^e, mant > 0 and |e| ≤ 19, to the nearest
// float64, ties to even, or reports false when the 128-bit product cannot
// tell which way the tie goes (Eisel–Lemire, as in Go's strconv). The
// result lies in [1e-19, 1e38], far from subnormals and infinity, so the
// bits are assembled with no range check.
func eiselLemire(mant uint64, e int) (float64, bool) {
	pow := &pow10[e+maxDigits]
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz)
	// 217706/2^16 is log2(10) to within the rounding the formula needs.
	exp2 := uint64(217706*e>>16+64+1023) - uint64(clz)
	hi, lo := bits.Mul64(mant, pow[1])
	if hi&0x1ff == 0x1ff && lo+mant < mant {
		// The truncated upper half may be one short: add the lower half's
		// product.
		yhi, ylo := bits.Mul64(mant, pow[0])
		mhi, mlo := hi, lo+yhi
		if mlo < lo {
			mhi++
		}
		if mhi&0x1ff == 0x1ff && mlo+1 == 0 && ylo+mant < mant {
			return 0, false
		}
		hi, lo = mhi, mlo
	}
	msb := hi >> 63
	m := hi >> (msb + 9) // 54 bits
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1ff == 0 && m&3 == 1 {
		return 0, false // exactly halfway on the truncated product
	}
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	return math.Float64frombits(exp2<<52 | m&(1<<52-1)), true
}

// pow10 holds 10^e for e = -19…19 as {low, high} 64-bit halves of the
// power normalized to a leading bit at 127 and truncated: the rows of Go's
// strconv table for that range (TestPow10Table derives each).
var pow10 = [2*maxDigits + 1][2]uint64{
	{0x2B31E9E3D06C32E5, 0xEC1E4A7DB69561A5}, // 1e-19
	{0x3AFF322E62439FCF, 0x9392EE8E921D5D07}, // 1e-18
	{0x09BEFEB9FAD487C2, 0xB877AA3236A4B449}, // 1e-17
	{0x4C2EBE687989A9B3, 0xE69594BEC44DE15B}, // 1e-16
	{0x0F9D37014BF60A10, 0x901D7CF73AB0ACD9}, // 1e-15
	{0x538484C19EF38C94, 0xB424DC35095CD80F}, // 1e-14
	{0x2865A5F206B06FB9, 0xE12E13424BB40E13}, // 1e-13
	{0xF93F87B7442E45D3, 0x8CBCCC096F5088CB}, // 1e-12
	{0xF78F69A51539D748, 0xAFEBFF0BCB24AAFE}, // 1e-11
	{0xB573440E5A884D1B, 0xDBE6FECEBDEDD5BE}, // 1e-10
	{0x31680A88F8953030, 0x89705F4136B4A597}, // 1e-9
	{0xFDC20D2B36BA7C3D, 0xABCC77118461CEFC}, // 1e-8
	{0x3D32907604691B4C, 0xD6BF94D5E57A42BC}, // 1e-7
	{0xA63F9A49C2C1B10F, 0x8637BD05AF6C69B5}, // 1e-6
	{0x0FCF80DC33721D53, 0xA7C5AC471B478423}, // 1e-5
	{0xD3C36113404EA4A8, 0xD1B71758E219652B}, // 1e-4
	{0x645A1CAC083126E9, 0x83126E978D4FDF3B}, // 1e-3
	{0x3D70A3D70A3D70A3, 0xA3D70A3D70A3D70A}, // 1e-2
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0x0000000000000000, 0x8000000000000000}, // 1e0
	{0x0000000000000000, 0xA000000000000000}, // 1e1
	{0x0000000000000000, 0xC800000000000000}, // 1e2
	{0x0000000000000000, 0xFA00000000000000}, // 1e3
	{0x0000000000000000, 0x9C40000000000000}, // 1e4
	{0x0000000000000000, 0xC350000000000000}, // 1e5
	{0x0000000000000000, 0xF424000000000000}, // 1e6
	{0x0000000000000000, 0x9896800000000000}, // 1e7
	{0x0000000000000000, 0xBEBC200000000000}, // 1e8
	{0x0000000000000000, 0xEE6B280000000000}, // 1e9
	{0x0000000000000000, 0x9502F90000000000}, // 1e10
	{0x0000000000000000, 0xBA43B74000000000}, // 1e11
	{0x0000000000000000, 0xE8D4A51000000000}, // 1e12
	{0x0000000000000000, 0x9184E72A00000000}, // 1e13
	{0x0000000000000000, 0xB5E620F480000000}, // 1e14
	{0x0000000000000000, 0xE35FA931A0000000}, // 1e15
	{0x0000000000000000, 0x8E1BC9BF04000000}, // 1e16
	{0x0000000000000000, 0xB1A2BC2EC5000000}, // 1e17
	{0x0000000000000000, 0xDE0B6B3A76400000}, // 1e18
	{0x0000000000000000, 0x8AC7230489E80000}, // 1e19
}
