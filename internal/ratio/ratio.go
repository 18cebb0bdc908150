// Package ratio implements exact rational arithmetic on int64 numerators and
// denominators.
//
// The buffer-capacity analysis of Wiggers et al. (DATE 2008) manipulates
// token-transfer rates such as τ/γ̂(e) and response-time quotients whose exact
// floor and ceiling decide the published capacities (Equation 4 of the
// paper). Floating point mis-floors these quantities near integer
// boundaries, so every rate, period and bound offset in this library is a
// Rat.
//
// A Rat is always kept in canonical form: the denominator is strictly
// positive and gcd(|num|, den) == 1. The zero value is the rational number
// 0/1 and is ready to use.
//
// All operations are overflow-checked. Overflow in this domain indicates a
// malformed model (the magnitudes involved are sample rates and frame sizes,
// far below 2^63), so the arithmetic methods panic with an *OverflowError.
// Boundary code that consumes untrusted input can use the Checked variants,
// which return an error instead.
package ratio

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Rat is an exact rational number num/den with den > 0 and
// gcd(|num|, den) == 1.
type Rat struct {
	num int64
	den int64
}

// Common constants.
var (
	// Zero is the rational number 0.
	Zero = Rat{0, 1}
	// One is the rational number 1.
	One = Rat{1, 1}
)

// OverflowError reports that an exact rational operation would exceed the
// range of int64 even after normalisation.
type OverflowError struct {
	Op string // the operation that overflowed, e.g. "mul"
}

func (e *OverflowError) Error() string {
	return "ratio: int64 overflow in " + e.Op
}

// New returns the canonical rational num/den. It returns an error if den is
// zero or the canonical form is not representable — which can only happen
// around math.MinInt64, whose magnitude 2⁶³ has no int64 negation (e.g.
// 3/MinInt64 would need the denominator 2⁶³).
func New(num, den int64) (Rat, error) {
	if den == 0 {
		return Rat{}, fmt.Errorf("ratio: zero denominator")
	}
	if num == 0 {
		return Rat{0, 1}, nil
	}
	// Reduce with an unsigned gcd: |MinInt64| overflows int64, so the
	// magnitudes must be taken in uint64 before any division.
	g := gcdU64(absU64(num), absU64(den))
	if g == 1<<63 {
		// Both magnitudes are 2⁶³: num == den == MinInt64, the value 1.
		return One, nil
	}
	num /= int64(g)
	den /= int64(g)
	if den < 0 {
		// A reduced MinInt64 component cannot be negated; the canonical
		// form (positive denominator) is out of int64 range.
		if num == math.MinInt64 || den == math.MinInt64 {
			return Rat{}, &OverflowError{Op: "new"}
		}
		num, den = -num, -den
	}
	return Rat{num, den}, nil
}

// MustNew is like New but panics on error. Use for literals known to be
// valid at compile time.
func MustNew(num, den int64) Rat {
	r, err := New(num, den)
	if err != nil {
		panic(err)
	}
	return r
}

// FromInt returns the rational number n/1.
func FromInt(n int64) Rat { return Rat{n, 1} }

// Num returns the canonical numerator.
func (r Rat) Num() int64 { return r.normalised().num }

// Den returns the canonical (positive) denominator.
func (r Rat) Den() int64 { return r.normalised().den }

// normalised maps the zero value Rat{} onto 0/1 so that the zero value is
// usable; any Rat produced by the constructors is already canonical.
func (r Rat) normalised() Rat {
	if r.den == 0 {
		return Rat{0, 1}
	}
	return r
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.normalised().num == 0 }

// Sign returns -1, 0 or +1 according to the sign of r.
func (r Rat) Sign() int {
	switch n := r.normalised().num; {
	case n < 0:
		return -1
	case n > 0:
		return 1
	default:
		return 0
	}
}

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.normalised().den == 1 }

// Add returns r + s, panicking on overflow.
func (r Rat) Add(s Rat) Rat {
	v, err := r.AddChecked(s)
	if err != nil {
		panic(err)
	}
	return v
}

// AddChecked returns r + s, or an error on overflow.
func (r Rat) AddChecked(s Rat) (Rat, error) {
	r, s = r.normalised(), s.normalised()
	// a/b + c/d = (a*(d/g) + c*(b/g)) / (b*(d/g)) with g = gcd(b, d).
	g := gcd64(r.den, s.den)
	db := s.den / g
	n1, ok := mul64(r.num, db)
	if !ok {
		return Rat{}, &OverflowError{Op: "add"}
	}
	n2, ok := mul64(s.num, r.den/g)
	if !ok {
		return Rat{}, &OverflowError{Op: "add"}
	}
	n, ok := add64(n1, n2)
	if !ok {
		return Rat{}, &OverflowError{Op: "add"}
	}
	d, ok := mul64(r.den, db)
	if !ok {
		return Rat{}, &OverflowError{Op: "add"}
	}
	return New(n, d)
}

// Sub returns r - s, panicking on overflow.
func (r Rat) Sub(s Rat) Rat {
	v, err := r.SubChecked(s)
	if err != nil {
		panic(err)
	}
	return v
}

// SubChecked returns r - s, or an error on overflow.
func (r Rat) SubChecked(s Rat) (Rat, error) {
	neg, err := s.NegChecked()
	if err != nil {
		return Rat{}, err
	}
	return r.AddChecked(neg)
}

// Neg returns -r, panicking on overflow (only possible for num==MinInt64).
func (r Rat) Neg() Rat {
	v, err := r.NegChecked()
	if err != nil {
		panic(err)
	}
	return v
}

// NegChecked returns -r, or an error if -r is not representable.
func (r Rat) NegChecked() (Rat, error) {
	r = r.normalised()
	if r.num == math.MinInt64 {
		return Rat{}, &OverflowError{Op: "neg"}
	}
	return Rat{-r.num, r.den}, nil
}

// Mul returns r * s, panicking on overflow.
func (r Rat) Mul(s Rat) Rat {
	v, err := r.MulChecked(s)
	if err != nil {
		panic(err)
	}
	return v
}

// MulChecked returns r * s, or an error on overflow.
func (r Rat) MulChecked(s Rat) (Rat, error) {
	r, s = r.normalised(), s.normalised()
	// Cross-reduce before multiplying to keep intermediates small.
	g1 := gcd64(abs64(r.num), s.den)
	g2 := gcd64(abs64(s.num), r.den)
	n, ok := mul64(r.num/g1, s.num/g2)
	if !ok {
		return Rat{}, &OverflowError{Op: "mul"}
	}
	d, ok := mul64(r.den/g2, s.den/g1)
	if !ok {
		return Rat{}, &OverflowError{Op: "mul"}
	}
	return New(n, d)
}

// Div returns r / s, panicking on overflow or division by zero.
func (r Rat) Div(s Rat) Rat {
	v, err := r.DivChecked(s)
	if err != nil {
		panic(err)
	}
	return v
}

// DivChecked returns r / s, or an error on overflow or if s is zero.
func (r Rat) DivChecked(s Rat) (Rat, error) {
	s = s.normalised()
	if s.num == 0 {
		return Rat{}, fmt.Errorf("ratio: division by zero")
	}
	inv, err := New(s.den, s.num)
	if err != nil {
		return Rat{}, err
	}
	return r.MulChecked(inv)
}

// MulInt returns r * n, panicking on overflow.
func (r Rat) MulInt(n int64) Rat { return r.Mul(FromInt(n)) }

// DivInt returns r / n, panicking on overflow or if n is zero.
func (r Rat) DivInt(n int64) Rat { return r.Div(FromInt(n)) }

// Cmp compares r and s and returns -1, 0 or +1. Unlike the arithmetic
// methods it never overflows: the cross products are evaluated in 128 bits.
func (r Rat) Cmp(s Rat) int {
	r, s = r.normalised(), s.normalised()
	rs, ss := r.Sign(), s.Sign()
	switch {
	case rs < ss:
		return -1
	case rs > ss:
		return 1
	case rs == 0:
		return 0
	}
	// Same non-zero sign: compare |r.num|·s.den with |s.num|·r.den
	// exactly, then flip for negatives.
	hi1, lo1 := bits.Mul64(absU64(r.num), uint64(s.den))
	hi2, lo2 := bits.Mul64(absU64(s.num), uint64(r.den))
	c := 0
	if hi1 != hi2 {
		if hi1 < hi2 {
			c = -1
		} else {
			c = 1
		}
	} else if lo1 != lo2 {
		if lo1 < lo2 {
			c = -1
		} else {
			c = 1
		}
	}
	if rs < 0 {
		c = -c
	}
	return c
}

// FloorDiv returns ⌊r/s⌋ for r ≥ 0 and s > 0, together with whether r/s is
// an integer. Like Cmp it never overflows an intermediate: the quotient is
// r.num·s.den / (r.den·s.num) with both products evaluated in 128 bits, so
// it answers where r.Div(s) would overflow. ok is false when r < 0, s ≤ 0
// or the quotient exceeds int64.
func (r Rat) FloorDiv(s Rat) (q int64, exact, ok bool) {
	r, s = r.normalised(), s.normalised()
	if r.num < 0 || s.num <= 0 {
		return 0, false, false
	}
	xhi, xlo := bits.Mul64(uint64(r.num), uint64(s.den))
	yhi, ylo := bits.Mul64(uint64(r.den), uint64(s.num))
	u, exact, ok := quo128(xhi, xlo, yhi, ylo)
	if !ok || u > math.MaxInt64 {
		return 0, false, false
	}
	return int64(u), exact, true
}

// quo128 returns ⌊x/y⌋ for the 128-bit values x = xhi·2⁶⁴+xlo and
// y = yhi·2⁶⁴+ylo > 0, and whether the division is exact; ok is false when
// the quotient needs more than 64 bits. The y ≥ 2⁶⁴ branch is the
// normalised-estimate division of Hacker's Delight (§9-5): the estimate
// from the divisor's top 64 bits is the quotient or one below it.
func quo128(xhi, xlo, yhi, ylo uint64) (q uint64, exact, ok bool) {
	if yhi == 0 {
		if xhi >= ylo {
			return 0, false, false
		}
		q, rem := bits.Div64(xhi, xlo, ylo)
		return q, rem == 0, true
	}
	n := uint(bits.LeadingZeros64(yhi))
	v := yhi<<n | ylo>>(64-n)
	// Halve x so the 128/64 estimate cannot overflow: x/2 < 2¹²⁷ ≤ v·2⁶⁴.
	q1, _ := bits.Div64(xhi>>1, xhi<<63|xlo>>1, v)
	q = q1 >> (63 - n)
	if q != 0 {
		q--
	}
	// r = x − q·y fits: q ≤ ⌊x/y⌋. Step q up once if r ≥ y.
	phi, plo := bits.Mul64(q, ylo)
	phi += q * yhi
	rlo, borrow := bits.Sub64(xlo, plo, 0)
	rhi, _ := bits.Sub64(xhi, phi, borrow)
	if rhi > yhi || (rhi == yhi && rlo >= ylo) {
		q++
		rlo, borrow = bits.Sub64(rlo, ylo, 0)
		rhi, _ = bits.Sub64(rhi, yhi, borrow)
	}
	return q, rhi == 0 && rlo == 0, true
}

// CheckedAdd returns a + b and whether the sum fits int64.
func CheckedAdd(a, b int64) (int64, bool) { return add64(a, b) }

// CheckedMul returns a · b and whether the product fits int64.
func CheckedMul(a, b int64) (int64, bool) { return mul64(a, b) }

// absU64 returns |n| as a uint64; well-defined for MinInt64.
func absU64(n int64) uint64 {
	if n < 0 {
		return uint64(-(n + 1)) + 1
	}
	return uint64(n)
}

// Less reports whether r < s.
func (r Rat) Less(s Rat) bool { return r.Cmp(s) < 0 }

// LessEq reports whether r <= s.
func (r Rat) LessEq(s Rat) bool { return r.Cmp(s) <= 0 }

// Equal reports whether r == s.
func (r Rat) Equal(s Rat) bool { return r.Cmp(s) == 0 }

// Floor returns the largest integer <= r.
func (r Rat) Floor() int64 {
	r = r.normalised()
	q := r.num / r.den
	if r.num%r.den != 0 && r.num < 0 {
		q--
	}
	return q
}

// Ceil returns the smallest integer >= r.
func (r Rat) Ceil() int64 {
	r = r.normalised()
	q := r.num / r.den
	if r.num%r.den != 0 && r.num > 0 {
		q++
	}
	return q
}

// Min returns the smaller of r and s.
func Min(r, s Rat) Rat {
	if r.Cmp(s) <= 0 {
		return r
	}
	return s
}

// Max returns the larger of r and s.
func Max(r, s Rat) Rat {
	if r.Cmp(s) >= 0 {
		return r
	}
	return s
}

// Float64 returns the nearest float64 approximation of r. It is intended for
// reporting only; the analysis never rounds through floats.
func (r Rat) Float64() float64 {
	r = r.normalised()
	return float64(r.num) / float64(r.den)
}

// String formats r as "n" when integral and "n/d" otherwise.
func (r Rat) String() string {
	r = r.normalised()
	if r.den == 1 {
		return strconv.FormatInt(r.num, 10)
	}
	return strconv.FormatInt(r.num, 10) + "/" + strconv.FormatInt(r.den, 10)
}

// Parse parses "n", "n/d" or a decimal like "1.25" into a Rat.
func Parse(s string) (Rat, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Rat{}, fmt.Errorf("ratio: empty input")
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		n, err := strconv.ParseInt(strings.TrimSpace(s[:i]), 10, 64)
		if err != nil {
			return Rat{}, fmt.Errorf("ratio: bad numerator %q: %w", s[:i], err)
		}
		d, err := strconv.ParseInt(strings.TrimSpace(s[i+1:]), 10, 64)
		if err != nil {
			return Rat{}, fmt.Errorf("ratio: bad denominator %q: %w", s[i+1:], err)
		}
		return New(n, d)
	}
	if i := strings.IndexByte(s, '.'); i >= 0 {
		intPart, fracPart := s[:i], s[i+1:]
		if fracPart == "" {
			return Rat{}, fmt.Errorf("ratio: bad decimal %q", s)
		}
		neg := strings.HasPrefix(intPart, "-")
		whole := int64(0)
		if intPart != "" && intPart != "-" && intPart != "+" {
			w, err := strconv.ParseInt(intPart, 10, 64)
			if err != nil {
				return Rat{}, fmt.Errorf("ratio: bad decimal %q: %w", s, err)
			}
			whole = w
		}
		frac, err := strconv.ParseInt(fracPart, 10, 64)
		if err != nil || frac < 0 {
			return Rat{}, fmt.Errorf("ratio: bad decimal %q", s)
		}
		den := int64(1)
		for range fracPart {
			var ok bool
			den, ok = mul64(den, 10)
			if !ok {
				return Rat{}, &OverflowError{Op: "parse"}
			}
		}
		f, err := New(frac, den)
		if err != nil {
			return Rat{}, err
		}
		w := FromInt(abs64(whole))
		v, err := w.AddChecked(f)
		if err != nil {
			return Rat{}, err
		}
		if neg {
			return v.NegChecked()
		}
		return v, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return Rat{}, fmt.Errorf("ratio: bad integer %q: %w", s, err)
	}
	return FromInt(n), nil
}

// MarshalText implements encoding.TextMarshaler using the String format.
func (r Rat) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler accepting the Parse
// formats.
func (r *Rat) UnmarshalText(b []byte) error {
	v, err := Parse(string(b))
	if err != nil {
		return err
	}
	*r = v
	return nil
}

// GCD returns the greatest common divisor of a and b, both of which must be
// non-negative. GCD(0, 0) == 0.
func GCD(a, b int64) int64 {
	if a < 0 || b < 0 {
		panic("ratio: GCD of negative value")
	}
	return gcd64(a, b)
}

// LCM returns the least common multiple of a and b (both positive),
// panicking on overflow.
func LCM(a, b int64) int64 {
	if a <= 0 || b <= 0 {
		panic("ratio: LCM of non-positive value")
	}
	v, ok := mul64(a/gcd64(a, b), b)
	if !ok {
		panic(&OverflowError{Op: "lcm"})
	}
	return v
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// gcdU64 is the unsigned Euclid used by New, where magnitudes may be 2⁶³.
func gcdU64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs64(n int64) int64 {
	if n < 0 {
		return -n // note: undefined for MinInt64; callers guard.
	}
	return n
}

func add64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	if (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		return 0, false
	}
	return p, true
}
