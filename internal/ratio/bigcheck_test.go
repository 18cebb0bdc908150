package ratio

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// toBig converts a Rat to the stdlib's arbitrary-precision rational.
func toBig(r Rat) *big.Rat { return big.NewRat(r.Num(), r.Den()) }

// fromParts builds a bounded Rat from fuzz input, avoiding legitimate
// overflow so every operation below must succeed and agree with big.Rat.
func fromParts(n int64, d int64) Rat {
	return MustNew(n%100000, d%100000+100001)
}

func TestCrossCheckArithmeticAgainstBigRat(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a, b := fromParts(an, ad), fromParts(bn, bd)
		ba, bb := toBig(a), toBig(b)

		if got, want := toBig(a.Add(b)), new(big.Rat).Add(ba, bb); got.Cmp(want) != 0 {
			t.Logf("add %v + %v: %v != %v", a, b, got, want)
			return false
		}
		if got, want := toBig(a.Sub(b)), new(big.Rat).Sub(ba, bb); got.Cmp(want) != 0 {
			t.Logf("sub: %v != %v", got, want)
			return false
		}
		if got, want := toBig(a.Mul(b)), new(big.Rat).Mul(ba, bb); got.Cmp(want) != 0 {
			t.Logf("mul: %v != %v", got, want)
			return false
		}
		if !b.IsZero() {
			if got, want := toBig(a.Div(b)), new(big.Rat).Quo(ba, bb); got.Cmp(want) != 0 {
				t.Logf("div: %v != %v", got, want)
				return false
			}
		}
		if a.Cmp(b) != ba.Cmp(bb) {
			t.Logf("cmp(%v, %v): %d != %d", a, b, a.Cmp(b), ba.Cmp(bb))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCrossCheckFloorAgainstBigRat(t *testing.T) {
	f := func(an, ad int64) bool {
		a := fromParts(an, ad)
		ba := toBig(a)
		// Floor via big.Int division with Euclidean adjustment.
		num, den := ba.Num(), ba.Denom()
		q := new(big.Int).Div(num, den) // big.Int.Div is floored division
		return q.IsInt64() && q.Int64() == a.Floor()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCrossCheckStringAgainstBigRat(t *testing.T) {
	f := func(an, ad int64) bool {
		a := fromParts(an, ad)
		if a.IsInt() {
			return true // big.Rat prints "n/1"; ours prints "n" by design
		}
		return a.String() == toBig(a).RatString()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuo128AgainstBigInt cross-checks the 128-bit division behind
// FloorDiv on random operands of every magnitude class, including
// divisors of 64–128 bits and quotients at the 64-bit edge.
func TestQuo128AgainstBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func() uint64 {
		// Mix full-width words with small, edge and shifted values.
		switch rng.Intn(5) {
		case 0:
			return uint64(rng.Intn(1000))
		case 1:
			return math.MaxUint64 - uint64(rng.Intn(3))
		case 2:
			return rng.Uint64() >> uint(rng.Intn(64))
		}
		return rng.Uint64()
	}
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	toInt := func(hi, lo uint64) *big.Int {
		v := new(big.Int).SetUint64(hi)
		return v.Mul(v, two64).Add(v, new(big.Int).SetUint64(lo))
	}
	for i := 0; i < 200000; i++ {
		xhi, xlo, yhi, ylo := word(), word(), word(), word()
		if i%2 == 0 {
			yhi = 0
		}
		if yhi == 0 && ylo == 0 {
			continue
		}
		x, y := toInt(xhi, xlo), toInt(yhi, ylo)
		q, m := new(big.Int).DivMod(x, y, new(big.Int))
		got, exact, ok := quo128(xhi, xlo, yhi, ylo)
		if fits := q.IsUint64(); ok != fits || (ok && (got != q.Uint64() || exact != (m.Sign() == 0))) {
			t.Fatalf("quo128(%d:%d / %d:%d) = (%d, %v, %v), want %v rem %v", xhi, xlo, yhi, ylo, got, exact, ok, q, m)
		}
	}
}

// TestFloorDivAgainstBigRat cross-checks FloorDiv on full-range
// components, where r.Div(s) itself would overflow.
func TestFloorDivAgainstBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	comp := func() int64 {
		if rng.Intn(3) == 0 {
			return 1 + rng.Int63n(1000)
		}
		return 1 + rng.Int63()>>uint(rng.Intn(63))
	}
	for i := 0; i < 100000; i++ {
		r, err := New(comp()-1, comp())
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(comp(), comp())
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Rat).Quo(toBig(r), toBig(s))
		q, m := new(big.Int).DivMod(want.Num(), want.Denom(), new(big.Int))
		got, exact, ok := r.FloorDiv(s)
		if ok != q.IsInt64() || (ok && (got != q.Int64() || exact != (m.Sign() == 0))) {
			t.Fatalf("%v FloorDiv %v = (%d, %v, %v), want %v (exact %v)", r, s, got, exact, ok, q, m.Sign() == 0)
		}
	}
	if _, _, ok := MustNew(-1, 2).FloorDiv(One); ok {
		t.Error("negative dividend accepted")
	}
	if _, _, ok := One.FloorDiv(Zero); ok {
		t.Error("zero divisor accepted")
	}
}
