package bfibe

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"sync"
	"testing"

	"mwskit/internal/ec"
	"mwskit/internal/obsv"
	"mwskit/internal/pairing"
)

// freshParams builds an isolated Params so cache-mutating tests cannot
// interfere with the shared testSetup instance.
func freshParams(t *testing.T) (*Params, *MasterKey) {
	t.Helper()
	sys := pairing.ParamsTest.MustSystem()
	p, mk, err := Setup(sys, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return p, mk
}

// offSubgroupU finds an on-curve point outside the order-q subgroup on
// the test curve. The cofactor is large, so the first on-curve point hit
// by scanning small x values is overwhelmingly likely to be off-subgroup.
func offSubgroupU(t *testing.T, c *ec.Curve) ec.Point {
	t.Helper()
	for x := int64(1); x < 10000; x++ {
		xe := c.F.FromInt64(x)
		rhs := xe.Square().Mul(xe).Add(xe)
		y, ok := rhs.Sqrt()
		if !ok || y.IsZero() {
			continue
		}
		pt, err := c.NewPoint(xe, y)
		if err != nil {
			continue
		}
		if !c.ScalarBaseOrderCheck(pt) {
			return pt
		}
	}
	t.Fatal("no off-subgroup point found on test curve")
	return ec.Point{}
}

// TestDecapsulationRejectsOffSubgroupPoint seeds every decryption path
// with an on-curve point outside G1 and demands rejection: such a point
// pairs into a small subgroup and would probe the private key (the
// invalid-point attack).
func TestDecapsulationRejectsOffSubgroupPoint(t *testing.T) {
	p, mk := testSetup(t)
	sk, err := mk.Extract(p, []byte("victim"))
	if err != nil {
		t.Fatal(err)
	}
	bad := offSubgroupU(t, p.Sys.Curve)

	if _, err := p.Decapsulate(sk, &Encapsulation{U: bad}, 16); err == nil {
		t.Error("Decapsulate accepted an off-subgroup U")
	}
	if _, err := p.DecryptBasic(sk, &CiphertextBasic{U: bad, V: []byte("xx")}); err == nil {
		t.Error("DecryptBasic accepted an off-subgroup U")
	}
	ctf := &CiphertextFull{U: bad, V: make([]byte, sigmaLen), W: []byte("yy")}
	if _, err := p.DecryptFull(sk, ctf); err == nil {
		t.Error("DecryptFull accepted an off-subgroup U")
	}
	d, err := p.NewDecapsulator(sk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decapsulate(&Encapsulation{U: bad}, 16); err == nil {
		t.Error("Decapsulator accepted an off-subgroup U")
	}
	// The wire boundary must reject it before it is even representable.
	if _, err := UnmarshalEncapsulation(p, p.Sys.Curve.Bytes(bad)); err == nil {
		t.Error("UnmarshalEncapsulation accepted an off-subgroup point")
	}
	if _, err := UnmarshalPrivateKey(p, MarshalPrivateKey(p, &PrivateKey{ID: []byte("x"), D: bad})); err == nil {
		t.Error("UnmarshalPrivateKey accepted an off-subgroup point")
	}
}

// TestGIDCacheHitCorrectness proves a cache hit yields the same working
// keys as a cold encapsulation: encapsulate twice to one identity and
// decapsulate both.
func TestGIDCacheHitCorrectness(t *testing.T) {
	p, mk := freshParams(t)
	id := []byte("ELECTRIC-APT-SV-CA||nonce-7")
	sk, err := mk.Extract(p, id)
	if err != nil {
		t.Fatal(err)
	}

	if n := p.GIDCacheLen(); n != 0 {
		t.Fatalf("fresh params cache len = %d", n)
	}
	enc1, key1, err := p.Encapsulate(id, 24, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.GIDCacheLen(); n != 1 {
		t.Fatalf("after first encapsulation cache len = %d, want 1", n)
	}
	enc2, key2, err := p.Encapsulate(id, 24, rand.Reader) // cache hit
	if err != nil {
		t.Fatal(err)
	}
	if n := p.GIDCacheLen(); n != 1 {
		t.Fatalf("after cached encapsulation cache len = %d, want 1", n)
	}
	if bytes.Equal(key1, key2) {
		t.Fatal("two encapsulations derived the same session key")
	}
	for i, pair := range []struct {
		enc *Encapsulation
		key []byte
	}{{enc1, key1}, {enc2, key2}} {
		got, err := p.Decapsulate(sk, pair.enc, 24)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pair.key) {
			t.Fatalf("encapsulation %d: decapsulated key mismatch", i)
		}
	}
}

// TestGIDCacheBoundAndInvalidation covers the LRU bound, per-identity
// invalidation, full flush, and the cache-disabled mode.
func TestGIDCacheBoundAndInvalidation(t *testing.T) {
	p, _ := freshParams(t)
	p.SetGIDCacheCap(2)
	ids := [][]byte{[]byte("id-a"), []byte("id-b"), []byte("id-c")}
	for _, id := range ids {
		if _, _, err := p.Encapsulate(id, 16, rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.GIDCacheLen(); n != 2 {
		t.Fatalf("cache len = %d, want LRU bound 2", n)
	}

	// id-a was evicted (least recent); invalidating a live entry shrinks.
	p.InvalidateIdentity([]byte("id-c"))
	if n := p.GIDCacheLen(); n != 1 {
		t.Fatalf("after invalidate cache len = %d, want 1", n)
	}
	// Invalidating an absent identity is a no-op.
	p.InvalidateIdentity([]byte("never-seen"))
	if n := p.GIDCacheLen(); n != 1 {
		t.Fatalf("after no-op invalidate cache len = %d, want 1", n)
	}

	p.FlushGIDCache()
	if n := p.GIDCacheLen(); n != 0 {
		t.Fatalf("after flush cache len = %d, want 0", n)
	}

	// Cap 0 disables caching but encryption keeps working.
	p.SetGIDCacheCap(0)
	if _, _, err := p.Encapsulate(ids[0], 16, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if n := p.GIDCacheLen(); n != 0 {
		t.Fatalf("disabled cache holds %d entries", n)
	}
}

// TestGIDCacheConcurrent hammers the cache under -race: encryptors over a
// small identity working set interleaved with rotations (invalidate),
// flushes, capacity changes, and size readers.
func TestGIDCacheConcurrent(t *testing.T) {
	p, mk := freshParams(t)
	ids := make([][]byte, 8)
	for i := range ids {
		ids[i] = []byte(fmt.Sprintf("meter-%d||nonce", i))
	}
	sk, err := mk.Extract(p, ids[0])
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := ids[(seed+i)%len(ids)]
				enc, key, err := p.Encapsulate(id, 16, rand.Reader)
				if err != nil {
					t.Error(err)
					return
				}
				if bytes.Equal(id, ids[0]) {
					got, err := p.Decapsulate(sk, enc, 16)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, key) {
						t.Error("concurrent decapsulation key mismatch")
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			p.InvalidateIdentity(ids[i%len(ids)])
			if i%10 == 0 {
				p.FlushGIDCache()
			}
			if i%17 == 0 {
				p.SetGIDCacheCap(4 + i%5)
			}
			_ = p.GIDCacheLen()
		}
	}()
	wg.Wait()
}

// orderChecks counts the order-q checks (public scalar multiplications)
// f runs.
func orderChecks(f func()) uint64 {
	before := obsv.CounterMap()["scalar_mult_public"]
	f()
	return obsv.CounterMap()["scalar_mult_public"] - before
}

// TestDecapsulationChecksOrderOnce pins one order check per encapsulation
// point: the decoder's, or none for a point Encapsulate computed.
// Decapsulation repeats it only for a U it cannot vouch for — a
// hand-built Encapsulation, or one whose U was replaced after the check.
func TestDecapsulationChecksOrderOnce(t *testing.T) {
	p, mk := testSetup(t)
	id := []byte("meter-7")
	sk, err := mk.Extract(p, id)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.NewDecapsulator(sk)
	if err != nil {
		t.Fatal(err)
	}
	enc, want, err := p.Encapsulate(id, 16, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	decaps := map[string]func(*Encapsulation) ([]byte, error){
		"Params.Decapsulate":       func(e *Encapsulation) ([]byte, error) { return p.Decapsulate(sk, e, 16) },
		"Decapsulator.Decapsulate": func(e *Encapsulation) ([]byte, error) { return d.Decapsulate(e, 16) },
	}

	var decoded *Encapsulation
	if n := orderChecks(func() { decoded, err = UnmarshalEncapsulation(p, MarshalEncapsulation(p, enc)) }); err != nil || n != 1 {
		t.Fatalf("decoding: %d order checks, err %v; want 1, nil", n, err)
	}
	for name, decap := range decaps {
		for _, c := range []struct {
			what   string
			enc    *Encapsulation
			checks uint64
		}{
			{"encapsulated", enc, 0},
			{"decoded", decoded, 0},
			{"hand-built", &Encapsulation{U: enc.U}, 1},
		} {
			var got []byte
			n := orderChecks(func() { got, err = decap(c.enc) })
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s of the %s encapsulation: err %v, key match %v", name, c.what, err, bytes.Equal(got, want))
			}
			if n != c.checks {
				t.Errorf("%s of the %s encapsulation ran %d order checks, want %d", name, c.what, n, c.checks)
			}
		}
	}

	// A checked Encapsulation whose U is then replaced by an on-curve
	// point outside G1 must not ride on the earlier check.
	bad := offSubgroupU(t, p.Sys.Curve)
	for name, decap := range decaps {
		for what, e := range map[string]Encapsulation{"encapsulated": *enc, "decoded": *decoded} {
			e.U = bad
			if _, err := decap(&e); err == nil {
				t.Errorf("%s accepted an off-subgroup U written into the %s encapsulation", name, what)
			}
		}
	}
}
