// Package bfibe implements Boneh–Franklin identity-based encryption over
// the pairing in internal/pairing, in the three forms the paper relies on:
//
//   - BasicIdent — the CPA-secure scheme of BF'01 §4.1, exactly the
//     C = (rP, M ⊕ H2(ê(Q_ID, sP)^r)) construction the paper's §IV recaps.
//   - FullIdent — the CCA-secure Fujisaki–Okamoto strengthening (BF'01 §4.2).
//   - KEM — the hybrid usage the paper's protocol actually deploys (§V.D):
//     the pairing value K = ê(sP, rI) keys a symmetric cipher (DES in the
//     prototype), with rP shipped alongside the ciphertext so the receiver
//     recomputes K = ê(rP, sI) from the PKG-issued private key sI.
//
// The four BF algorithms map to the package API as Setup, Extract
// (MasterKey.Extract), Encrypt*/Encapsulate, Decrypt*/Decapsulate.
package bfibe

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"math/big"

	"mwskit/internal/ec"
	"mwskit/internal/kdf"
	"mwskit/internal/pairing"
)

// identityDomain separates hash-to-curve usage for identities from other
// consumers of the curve.
const identityDomain = "mwskit/bfibe/id/v1"

// sigmaLen is the length of the Fujisaki–Okamoto seed σ in FullIdent.
const sigmaLen = 32

// Params are the public system parameters the PKG publishes after Setup:
// the pairing system (field, curve, base point P) and P_pub = sP.
//
// Params also owns the g_ID hot-path cache (gidcache.go), so it must be
// handled by pointer once in use; every constructor in this package and
// its callers already does.
type Params struct {
	Sys  *pairing.System
	PPub ec.Point // sP, the public master key

	// gid caches g_ID = ê(Q_ID, P_pub) per identity digest so repeat
	// deposits to the same attribute ‖ nonce identity skip the pairing.
	gid gidCache
}

// InvalidateIdentity drops the cached g_ID for one identity. Devices call
// it on nonce rotation: the retired attribute ‖ nonce digest will never
// be encrypted to again, so its pairing value is dead weight.
func (p *Params) InvalidateIdentity(id []byte) { p.gid.invalidate(id) }

// FlushGIDCache empties the g_ID cache.
func (p *Params) FlushGIDCache() { p.gid.flush() }

// GIDCacheLen reports the number of cached g_ID values.
func (p *Params) GIDCacheLen() int { return p.gid.size() }

// SetGIDCacheCap bounds the g_ID cache (default 256 entries); n ≤ 0
// disables caching entirely, which benchmarks use to measure the
// uncached path.
func (p *Params) SetGIDCacheCap(n int) { p.gid.setCap(n) }

// MasterKey is the PKG's master secret s. It never leaves the PKG.
type MasterKey struct {
	s *big.Int
}

// S returns a copy of the master scalar (for persistence inside the PKG).
//
//mwslint:ignore ctflow persistence boundary: the master scalar leaves the limb domain as a big.Int only to be serialized by the PKG's own storage, not to enter arithmetic
func (m *MasterKey) S() *big.Int { return new(big.Int).Set(m.s) }

// MasterKeyFromScalar reconstructs a master key from persisted state.
func MasterKeyFromScalar(s *big.Int) (*MasterKey, error) {
	if s == nil || s.Sign() <= 0 {
		return nil, errors.New("bfibe: master scalar must be positive")
	}
	return &MasterKey{s: new(big.Int).Set(s)}, nil
}

// PrivateKey is an extracted identity key d_ID = s·Q_ID.
type PrivateKey struct {
	ID []byte   // the identity string the key decrypts for
	D  ec.Point // s·H1(ID)
}

// Setup runs the BF Setup algorithm: draw the master secret s ← Z_q* and
// publish P_pub = sP. It is executed once by the PKG.
func Setup(sys *pairing.System, rng io.Reader) (*Params, *MasterKey, error) {
	if sys == nil {
		return nil, nil, errors.New("bfibe: nil pairing system")
	}
	s, err := sys.RandomScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("bfibe: setup: %w", err)
	}
	pub := sys.G1Comb().Mul(s)
	return &Params{Sys: sys, PPub: pub}, &MasterKey{s: s}, nil
}

// ParamsFromMaster rebuilds public parameters from a persisted master key.
func ParamsFromMaster(sys *pairing.System, mk *MasterKey) *Params {
	return &Params{Sys: sys, PPub: sys.G1Comb().Mul(mk.s)}
}

// HashIdentity maps an identity string to its public point Q_ID ∈ G1
// (the BF "MapToPoint" H1).
func (p *Params) HashIdentity(id []byte) (ec.Point, error) {
	return p.Sys.Curve.HashToSubgroup(identityDomain, id)
}

// Extract runs the BF Extract algorithm at the PKG: d_ID = s·Q_ID.
func (m *MasterKey) Extract(p *Params, id []byte) (*PrivateKey, error) {
	q, err := p.HashIdentity(id)
	if err != nil {
		return nil, fmt.Errorf("bfibe: extract: %w", err)
	}
	d := p.Sys.Curve.ScalarMultSecret(q, m.s)
	idCopy := make([]byte, len(id))
	copy(idCopy, id)
	return &PrivateKey{ID: idCopy, D: d}, nil
}

// gID returns g_ID = ê(Q_ID, P_pub), the value whose r-th power keys a
// ciphertext for the identity — from the cache when the identity was
// encrypted to before (one deposit per message within a nonce epoch hits
// this), computing and caching the hash-to-curve plus pairing otherwise.
func (p *Params) gID(id []byte) (pairing.GT, error) {
	if g, ok := p.gid.get(id); ok {
		return g, nil
	}
	q, err := p.HashIdentity(id)
	if err != nil {
		return pairing.GT{}, err
	}
	g := p.Sys.Pair(q, p.PPub)
	p.gid.put(id, g)
	return g, nil
}

// --- KEM (the paper's hybrid usage) ---

// Encapsulation carries the key-transport point U = rP that the depositing
// client stores next to the symmetric ciphertext.
type Encapsulation struct {
	U ec.Point

	// inG1 is the point UnmarshalEncapsulation validated or Encapsulate
	// computed, when set: while U still equals it, decapsulation skips
	// repeating the order-q check, the costliest part of validation.
	inG1    ec.Point
	hasInG1 bool
}

// markInG1 records that e.U, as it is now, lies in G1.
func (e *Encapsulation) markInG1() {
	e.inG1, e.hasInG1 = e.U, true
}

// Encapsulate derives a fresh symmetric key of keyLen bytes for the given
// identity: pick r, output U = rP and key = KDF(ê(Q_ID, sP)^r). This is
// the paper's K = ê(sP, rI) with I = Q_ID (identity point hashed from
// the attribute digest).
func (p *Params) Encapsulate(id []byte, keyLen int, rng io.Reader) (*Encapsulation, []byte, error) {
	g, err := p.gID(id)
	if err != nil {
		return nil, nil, err
	}
	r, err := p.Sys.RandomScalar(rng)
	if err != nil {
		return nil, nil, err
	}
	u := p.Sys.G1Comb().Mul(r)
	// r keys the pad, so the exponentiation takes the constant-time path.
	shared := p.Sys.GTExpSecret(g, r)
	enc := &Encapsulation{U: u}
	enc.markInG1()
	return enc, kdf.SessionKey(shared.Bytes(), keyLen), nil
}

// Decapsulate recomputes the symmetric key from U and the identity's
// private key: KDF(ê(d_ID, U)) = KDF(ê(Q_ID, sP)^r) by bilinearity.
func (p *Params) Decapsulate(sk *PrivateKey, enc *Encapsulation, keyLen int) ([]byte, error) {
	if sk == nil || enc == nil {
		return nil, errors.New("bfibe: nil key or encapsulation")
	}
	if err := p.checkEncapsulationPoint(enc); err != nil {
		return nil, err
	}
	shared := p.Sys.Pair(sk.D, enc.U)
	return kdf.SessionKey(shared.Bytes(), keyLen), nil
}

// checkEncapsulationPoint validates an encapsulation point before it may
// meet private-key material. The order check matters: an on-curve point
// outside G1 pairs into a small subgroup and probes the private key (the
// invalid-point attack); honest encapsulations are always rP ∈ G1. A
// point the decoder already checked, or Encapsulate computed, is not
// checked again unless U has since been changed.
func (p *Params) checkEncapsulationPoint(enc *Encapsulation) error {
	u := enc.U
	if u.Inf || !p.Sys.Curve.IsOnCurve(u) {
		return errors.New("bfibe: encapsulation point off curve")
	}
	if enc.hasInG1 && u.Equal(enc.inG1) {
		return nil
	}
	if !p.Sys.Curve.ScalarBaseOrderCheck(u) {
		return errors.New("bfibe: encapsulation point not in the order-q subgroup")
	}
	return nil
}

// Decapsulator amortizes the pairing cost of one private key across many
// decapsulations: the Miller-loop line coefficients of d_ID — everything
// in ê(d_ID, ·) that does not depend on the encapsulation point — are
// computed once, so each Decapsulate pays only the F_p² accumulation and
// the final exponentiation. Retrieval batches, where one identity key
// decrypts many messages of a nonce epoch, are the intended caller
// (rclient.DecryptRetrieval builds one per key in the batch). Immutable
// and safe for concurrent use by the batch worker pool.
type Decapsulator struct {
	p   *Params
	pre *pairing.G1Precomp
}

// NewDecapsulator precomputes the pairing lines for one private key.
func (p *Params) NewDecapsulator(sk *PrivateKey) (*Decapsulator, error) {
	if sk == nil {
		return nil, errors.New("bfibe: nil private key")
	}
	return &Decapsulator{p: p, pre: p.Sys.G1Precomp(sk.D)}, nil
}

// Decapsulate recomputes the symmetric key from U using the precomputed
// key lines, with the same validation as Params.Decapsulate.
func (d *Decapsulator) Decapsulate(enc *Encapsulation, keyLen int) ([]byte, error) {
	if enc == nil {
		return nil, errors.New("bfibe: nil encapsulation")
	}
	if err := d.p.checkEncapsulationPoint(enc); err != nil {
		return nil, err
	}
	shared := d.pre.Pair(enc.U)
	return kdf.SessionKey(shared.Bytes(), keyLen), nil
}

// --- BasicIdent ---

// CiphertextBasic is a BasicIdent ciphertext (U, V) = (rP, M ⊕ H2(g_ID^r)).
type CiphertextBasic struct {
	U ec.Point
	V []byte
}

// EncryptBasic encrypts msg for id under the CPA-secure BasicIdent scheme.
func (p *Params) EncryptBasic(id, msg []byte, rng io.Reader) (*CiphertextBasic, error) {
	g, err := p.gID(id)
	if err != nil {
		return nil, err
	}
	r, err := p.Sys.RandomScalar(rng)
	if err != nil {
		return nil, err
	}
	u := p.Sys.G1Comb().Mul(r)
	pad := p.Sys.GTExpSecret(g, r)
	return &CiphertextBasic{
		U: u,
		V: kdf.Mask("mwskit/bfibe/h2", pad.Bytes(), msg),
	}, nil
}

// DecryptBasic inverts EncryptBasic with the identity's private key:
// M = V ⊕ H2(ê(d_ID, U)).
func (p *Params) DecryptBasic(sk *PrivateKey, ct *CiphertextBasic) ([]byte, error) {
	if sk == nil || ct == nil {
		return nil, errors.New("bfibe: nil key or ciphertext")
	}
	if ct.U.Inf || !p.Sys.Curve.IsOnCurve(ct.U) {
		return nil, errors.New("bfibe: ciphertext point off curve")
	}
	if !p.Sys.Curve.ScalarBaseOrderCheck(ct.U) {
		return nil, errors.New("bfibe: ciphertext point not in the order-q subgroup")
	}
	pad := p.Sys.Pair(sk.D, ct.U)
	return kdf.Mask("mwskit/bfibe/h2", pad.Bytes(), ct.V), nil
}

// --- FullIdent ---

// CiphertextFull is a FullIdent ciphertext
// (U, V, W) = (rP, σ ⊕ H2(g_ID^r), M ⊕ H4(σ)) with r = H3(σ, M).
type CiphertextFull struct {
	U ec.Point
	V []byte // masked σ, fixed sigmaLen bytes
	W []byte // masked message
}

// ErrDecrypt is returned when a FullIdent ciphertext fails its validity
// check. The error is deliberately unspecific: distinguishing failure
// causes would hand a chosen-ciphertext adversary an oracle.
var ErrDecrypt = errors.New("bfibe: decryption failed")

// EncryptFull encrypts msg for id under the CCA-secure FullIdent scheme
// (Fujisaki–Okamoto transform over BasicIdent).
func (p *Params) EncryptFull(id, msg []byte, rng io.Reader) (*CiphertextFull, error) {
	g, err := p.gID(id)
	if err != nil {
		return nil, err
	}
	sigma := make([]byte, sigmaLen)
	if _, err := io.ReadFull(rng, sigma); err != nil {
		return nil, fmt.Errorf("bfibe: sigma: %w", err)
	}
	// r is secret (it determines the pad), so even this hash-derived
	// scalar takes the constant-schedule fixed-base path.
	r := kdf.ToScalar("mwskit/bfibe/h3", p.Sys.Curve.Q, sigma, msg)
	u := p.Sys.G1Comb().Mul(r)
	pad := p.Sys.GTExpSecret(g, r)
	return &CiphertextFull{
		U: u,
		V: kdf.Mask("mwskit/bfibe/h2", pad.Bytes(), sigma),
		W: kdf.Mask("mwskit/bfibe/h4", sigma, msg),
	}, nil
}

// DecryptFull inverts EncryptFull, rejecting any ciphertext whose
// re-derived randomness does not reproduce U (the FO validity check).
func (p *Params) DecryptFull(sk *PrivateKey, ct *CiphertextFull) ([]byte, error) {
	if sk == nil || ct == nil {
		return nil, ErrDecrypt
	}
	if ct.U.Inf || !p.Sys.Curve.IsOnCurve(ct.U) || len(ct.V) != sigmaLen {
		return nil, ErrDecrypt
	}
	if !p.Sys.Curve.ScalarBaseOrderCheck(ct.U) {
		return nil, ErrDecrypt
	}
	pad := p.Sys.Pair(sk.D, ct.U)
	sigma := kdf.Mask("mwskit/bfibe/h2", pad.Bytes(), ct.V)
	msg := kdf.Mask("mwskit/bfibe/h4", sigma, ct.W)
	r := kdf.ToScalar("mwskit/bfibe/h3", p.Sys.Curve.Q, sigma, msg)
	uCheck := p.Sys.G1Comb().Mul(r)
	if !uCheck.Equal(ct.U) {
		return nil, ErrDecrypt
	}
	return msg, nil
}

// ConstantTimeKeyEqual compares two derived symmetric keys without leaking
// a timing signal; exported for the protocol layer's tests.
func ConstantTimeKeyEqual(a, b []byte) bool {
	return len(a) == len(b) && subtle.ConstantTimeCompare(a, b) == 1
}
