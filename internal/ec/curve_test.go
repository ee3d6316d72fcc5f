package ec

import (
	"crypto/rand"
	"math/big"
	"testing"

	"mwskit/internal/ff"
	"mwskit/internal/obsv"
)

// Small test curve: p = 1051 ≡ 3 (mod 4) is prime; #E = p + 1 = 1052 =
// 4·263 with 263 prime, so q = 263 gives a clean subgroup.
var (
	smallP = big.NewInt(1051)
	smallQ = big.NewInt(263)
)

func smallCurve(t *testing.T) *Curve {
	t.Helper()
	f, err := ff.NewField(smallP)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCurve(f, smallQ)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// findPoint returns some affine point of the small curve by brute force.
func findPoint(t *testing.T, c *Curve) Point {
	t.Helper()
	for x := int64(1); x < 1051; x++ {
		xe := c.F.FromInt64(x)
		rhs := xe.Square().Mul(xe).Add(xe)
		if y, ok := rhs.Sqrt(); ok && !y.IsZero() {
			p, err := c.NewPoint(xe, y)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	t.Fatal("no point found")
	return Point{}
}

// subgroupGen returns a point of exact order q.
func subgroupGen(t *testing.T, c *Curve) Point {
	t.Helper()
	for i := 0; i < 64; i++ {
		g, err := c.HashToSubgroup("ec-test", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if !g.Inf {
			return g
		}
	}
	t.Fatal("no subgroup generator found")
	return Point{}
}

func TestNewCurveRejectsNonDivisor(t *testing.T) {
	f := ff.MustField(smallP)
	if _, err := NewCurve(f, big.NewInt(7)); err == nil {
		t.Fatal("q=7 does not divide p+1 but was accepted")
	}
	if _, err := NewCurve(nil, smallQ); err == nil {
		t.Fatal("nil field accepted")
	}
}

func TestCurveOrder(t *testing.T) {
	c := smallCurve(t)
	// #E(F_p) = p + 1 for this supersingular family: every point times
	// p+1 must be the identity.
	n := new(big.Int).Add(smallP, big.NewInt(1))
	for i := 0; i < 8; i++ {
		p := findPoint(t, c)
		if !c.ScalarMult(p, n).Inf {
			t.Fatalf("(p+1)·P != ∞ for %v", p)
		}
	}
}

func TestGroupLaws(t *testing.T) {
	c := smallCurve(t)
	p := findPoint(t, c)
	q := c.Double(p)
	r := c.Add(q, p) // 3P

	t.Run("IdentityElement", func(t *testing.T) {
		if !c.Add(p, c.Infinity()).Equal(p) || !c.Add(c.Infinity(), p).Equal(p) {
			t.Error("∞ is not the identity")
		}
	})
	t.Run("Inverse", func(t *testing.T) {
		if !c.Add(p, p.Neg()).Inf {
			t.Error("P + (−P) != ∞")
		}
	})
	t.Run("Commutativity", func(t *testing.T) {
		if !c.Add(p, q).Equal(c.Add(q, p)) {
			t.Error("addition not commutative")
		}
	})
	t.Run("Associativity", func(t *testing.T) {
		lhs := c.Add(c.Add(p, q), r)
		rhs := c.Add(p, c.Add(q, r))
		if !lhs.Equal(rhs) {
			t.Error("addition not associative")
		}
	})
	t.Run("DoubleIsAdd", func(t *testing.T) {
		if !c.Double(p).Equal(c.Add(p, p)) {
			t.Error("Double(P) != P+P")
		}
	})
	t.Run("SubInvertsAdd", func(t *testing.T) {
		if !c.Sub(c.Add(p, q), q).Equal(p) {
			t.Error("(P+Q)−Q != P")
		}
	})
	t.Run("ClosedUnderAdd", func(t *testing.T) {
		if !c.IsOnCurve(c.Add(p, q)) || !c.IsOnCurve(c.Double(p)) {
			t.Error("operation left the curve")
		}
	})
}

func TestScalarMultMatchesRepeatedAdd(t *testing.T) {
	c := smallCurve(t)
	p := findPoint(t, c)
	acc := c.Infinity()
	for k := 0; k <= 25; k++ {
		got := c.ScalarMult(p, big.NewInt(int64(k)))
		if !got.Equal(acc) {
			t.Fatalf("k=%d: ScalarMult=%v, repeated add=%v", k, got, acc)
		}
		acc = c.Add(acc, p)
	}
}

func TestScalarMultNegative(t *testing.T) {
	c := smallCurve(t)
	p := findPoint(t, c)
	if !c.ScalarMult(p, big.NewInt(-3)).Equal(c.ScalarMult(p, big.NewInt(3)).Neg()) {
		t.Fatal("(−3)P != −(3P)")
	}
}

func TestScalarMultDistributes(t *testing.T) {
	c := smallCurve(t)
	p := findPoint(t, c)
	a, b := big.NewInt(97), big.NewInt(151)
	lhs := c.Add(c.ScalarMult(p, a), c.ScalarMult(p, b))
	rhs := c.ScalarMult(p, new(big.Int).Add(a, b))
	if !lhs.Equal(rhs) {
		t.Fatal("aP + bP != (a+b)P")
	}
	// (ab)P = a(bP)
	lhs2 := c.ScalarMult(c.ScalarMult(p, b), a)
	rhs2 := c.ScalarMult(p, new(big.Int).Mul(a, b))
	if !lhs2.Equal(rhs2) {
		t.Fatal("a(bP) != (ab)P")
	}
}

func TestSubgroupMembership(t *testing.T) {
	c := smallCurve(t)
	g := subgroupGen(t, c)
	if !c.ScalarBaseOrderCheck(g) {
		t.Fatal("generator failed order check")
	}
	// Random multiples stay in the subgroup.
	for i := int64(2); i < 10; i++ {
		m := c.ScalarMult(g, big.NewInt(i))
		if !c.ScalarBaseOrderCheck(m) {
			t.Fatalf("%d·G left the subgroup", i)
		}
	}
}

// TestScalarBaseOrderCheckEveryPoint compares the Jacobian-domain order
// check with the affine double-and-add reference on every point of the
// small curve, inside and outside the subgroup, and pins its cost at one
// public scalar multiplication per call.
func TestScalarBaseOrderCheckEveryPoint(t *testing.T) {
	c := smallCurve(t)
	pts := []Point{c.Infinity()}
	for x := int64(0); x < smallP.Int64(); x++ {
		xe := c.F.FromInt64(x)
		y, ok := xe.Square().Mul(xe).Add(xe).Sqrt()
		if !ok {
			continue
		}
		pts = append(pts, Point{X: xe, Y: y})
		if !y.IsZero() {
			pts = append(pts, Point{X: xe, Y: y.Neg()})
		}
	}
	if len(pts) != 1052 {
		t.Fatalf("enumerated %d points, want #E = p+1 = 1052", len(pts))
	}
	in := 0
	before := obsv.CounterMap()["scalar_mult_public"]
	for _, p := range pts {
		want := c.scalarMultBinary(p, c.Q).Inf
		if got := c.ScalarBaseOrderCheck(p); got != want {
			t.Fatalf("ScalarBaseOrderCheck(%v) = %v, want %v", p, got, want)
		}
		if want {
			in++
		}
	}
	if n := obsv.CounterMap()["scalar_mult_public"] - before; n != uint64(len(pts)) {
		t.Fatalf("%d order checks counted %d public scalar multiplications", len(pts), n)
	}
	if in != int(smallQ.Int64()) {
		t.Fatalf("%d points passed the order check, want q = %v", in, smallQ)
	}
}

func TestClearCofactor(t *testing.T) {
	c := smallCurve(t)
	for i := 0; i < 8; i++ {
		p := findPoint(t, c)
		g := c.ClearCofactor(p)
		if !c.ScalarMult(g, c.Q).Inf {
			t.Fatal("cofactor-cleared point not killed by q")
		}
	}
}

func TestNewPointRejectsOffCurve(t *testing.T) {
	c := smallCurve(t)
	if _, err := c.NewPoint(c.F.FromInt64(1), c.F.FromInt64(1)); err == nil {
		t.Fatal("off-curve point accepted")
	}
}

func TestOrderTwoPointDoubling(t *testing.T) {
	c := smallCurve(t)
	// (0, 0) is on y² = x³ + x and has order 2.
	p, err := c.NewPoint(c.F.Zero(), c.F.Zero())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Double(p).Inf {
		t.Fatal("doubling an order-2 point should give ∞")
	}
	if !c.Add(p, p).Inf {
		t.Fatal("P+P for order-2 point should give ∞")
	}
}

func TestPointBytesRoundTrip(t *testing.T) {
	c := smallCurve(t)
	p := findPoint(t, c)
	enc := c.Bytes(p)
	if len(enc) != c.PointByteLen() {
		t.Fatalf("encoding length %d, want %d", len(enc), c.PointByteLen())
	}
	back, err := c.PointFromBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(p) {
		t.Fatal("point round trip changed value")
	}
	// Infinity round trip.
	inf, err := c.PointFromBytes(c.Bytes(c.Infinity()))
	if err != nil || !inf.Inf {
		t.Fatalf("infinity round trip failed: %v %v", inf, err)
	}
}

func TestPointFromBytesRejects(t *testing.T) {
	c := smallCurve(t)
	if _, err := c.PointFromBytes([]byte{9}); err == nil {
		t.Error("bad tag accepted")
	}
	if _, err := c.PointFromBytes(nil); err == nil {
		t.Error("empty encoding accepted")
	}
	// Valid-length garbage that is off-curve must be rejected.
	junk := make([]byte, c.PointByteLen())
	junk[0] = 4
	junk[len(junk)-1] = 3
	if _, err := c.PointFromBytes(junk); err == nil {
		t.Error("off-curve encoding accepted")
	}
}

func TestHashToCurveDeterministic(t *testing.T) {
	c := smallCurve(t)
	a, err := c.HashToCurvePoint("d", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.HashToCurvePoint("d", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("hash-to-curve not deterministic")
	}
	if !c.IsOnCurve(a) {
		t.Fatal("hashed point off curve")
	}
	d, err := c.HashToCurvePoint("d", []byte("world"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(d) {
		t.Fatal("distinct messages hashed to the same point")
	}
	e, err := c.HashToCurvePoint("other-domain", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(e) {
		t.Fatal("distinct domains hashed to the same point")
	}
}

func TestHashToSubgroup(t *testing.T) {
	c := smallCurve(t)
	for i := 0; i < 16; i++ {
		msg := make([]byte, 8)
		if _, err := rand.Read(msg); err != nil {
			t.Fatal(err)
		}
		g, err := c.HashToSubgroup("d", msg)
		if err != nil {
			t.Fatal(err)
		}
		if g.Inf {
			t.Fatal("hash-to-subgroup returned identity")
		}
		if !c.ScalarBaseOrderCheck(g) {
			t.Fatal("hashed point not in subgroup")
		}
	}
}

func TestJacobianMatchesAffine(t *testing.T) {
	c := smallCurve(t)
	p := findPoint(t, c)
	q := c.Double(p)
	// Exercise the Jacobian path against affine chained additions for a
	// spread of scalars, including ones crossing the group order.
	for _, k := range []int64{1, 2, 3, 5, 17, 262, 263, 264, 1000, 1052, 1053} {
		kb := big.NewInt(k)
		viaJac := c.ScalarMult(p, kb)
		affine := c.Infinity()
		for i := int64(0); i < k; i++ {
			affine = c.Add(affine, p)
		}
		if !viaJac.Equal(affine) {
			t.Fatalf("k=%d: jacobian %v != affine %v", k, viaJac, affine)
		}
	}
	_ = q
}
