// Package rclient implements the receiving-client side of the protocol
// (§V.C/D, MWS–RC and RC–PKG phases): authenticate to the Gatekeeper,
// receive encrypted messages plus a PKG token, unwrap the token with the
// client's RSA key, present ticket + authenticator to the PKG to obtain
// the per-message private keys sI, and finally decapsulate and decrypt
// each message.
//
// Throughout, the client handles attributes only as opaque AIDs; the
// actual attribute strings stay inside the sealed ticket (§V.D).
package rclient

import (
	"context"
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/keyserver"
	"mwskit/internal/obsv"
	"mwskit/internal/par"
	"mwskit/internal/symenc"
	"mwskit/internal/ticket"
	"mwskit/internal/userdb"
	"mwskit/internal/wire"
)

// Client is a receiving client. Immutable after construction.
type Client struct {
	id      string
	credKey []byte
	priv    *rsa.PrivateKey
	params  *bfibe.Params
	rand    io.Reader
	now     func() time.Time
}

// Option customizes a Client.
type Option func(*Client)

// WithRand overrides the entropy source.
func WithRand(r io.Reader) Option { return func(c *Client) { c.rand = r } }

// WithClock overrides the timestamp source.
func WithClock(now func() time.Time) Option { return func(c *Client) { c.now = now } }

// New builds a receiving client from its registration artifacts. The
// credential key is derived from the password exactly as the user
// database derives it at registration.
func New(id string, password []byte, priv *rsa.PrivateKey, params *bfibe.Params, opts ...Option) (*Client, error) {
	if id == "" {
		return nil, errors.New("rclient: empty identity")
	}
	if len(password) == 0 {
		return nil, errors.New("rclient: empty password")
	}
	if priv == nil {
		return nil, errors.New("rclient: nil private key")
	}
	if params == nil {
		return nil, errors.New("rclient: nil IBE parameters")
	}
	c := &Client{
		id:      id,
		credKey: userdb.CredentialKey(id, password),
		priv:    priv,
		params:  params,
		rand:    attr.RandReader,
		now:     time.Now,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// ID returns the client identity.
func (c *Client) ID() string { return c.id }

// Envelope is one retrieved-but-not-yet-decrypted message.
type Envelope = wire.MessageItem

// Retrieval is the result of the MWS–RC phase: the encrypted messages and
// the credentials needed for the RC–PKG phase.
type Retrieval struct {
	Items      []Envelope
	SessionKey []byte
	TicketBlob []byte
}

// Retrieve runs the MWS–RC phase: authenticate, fetch messages after the
// cursor, and unwrap the PKG token.
func (c *Client) Retrieve(mws *wire.Client, fromSeq uint64, limit uint32) (*Retrieval, error) {
	return c.RetrieveContext(background(), mws, fromSeq, limit)
}

// background is the shared root for the package's context-free
// convenience wrappers; cancellation-aware callers use the Context
// variants directly.
func background() context.Context {
	//mwslint:ignore ctxflow single annotated root for the context-free convenience wrappers; request paths use the Context variants
	return context.Background()
}

// RetrieveContext is Retrieve under a request context: when the context
// carries a trace span, the current trace rides the retrieve frame so
// the warehouse's spans stitch to the client's, and the token unwrap
// lands as its own child span.
func (c *Client) RetrieveContext(ctx context.Context, mws *wire.Client, fromSeq uint64, limit uint32) (*Retrieval, error) {
	authBlob, err := ticket.SealAuthenticator(c.credKey, &ticket.Authenticator{
		RC:        c.id,
		Timestamp: c.now(),
	})
	if err != nil {
		return nil, err
	}
	req := wire.RetrieveRequest{RC: c.id, AuthBlob: authBlob, FromSeq: fromSeq, Limit: limit}
	rpcCtx, rpcSp := obsv.StartSpan(ctx, "rpc.retrieve")
	resp, err := mws.Do(wire.Frame{Type: wire.TRetrieve, Payload: req.Marshal(), Trace: obsv.ContextTrace(rpcCtx)})
	rpcSp.SetErr(err)
	rpcSp.End()
	if err != nil {
		return nil, err
	}
	if resp.Type != wire.TRetrieveResp {
		return nil, fmt.Errorf("rclient: unexpected response type %s", resp.Type)
	}
	rr, err := wire.UnmarshalRetrieveResponse(resp.Payload)
	if err != nil {
		return nil, err
	}
	_, tokSp := obsv.StartSpan(ctx, "token.open")
	tok, err := ticket.OpenToken(c.priv, rr.TokenBlob)
	tokSp.SetErr(err)
	tokSp.End()
	if err != nil {
		return nil, fmt.Errorf("rclient: token: %w", err)
	}
	return &Retrieval{Items: rr.Items, SessionKey: tok.SessionKey, TicketBlob: tok.TicketBlob}, nil
}

// FetchKeys runs the RC–PKG phase for the given retrieval: one extract
// request covering the distinct (AID, Nonce) pairs, returning the private
// keys indexed identically to the request items it derives.
func (c *Client) FetchKeys(pkg *wire.Client, r *Retrieval) (map[keyIndex]*bfibe.PrivateKey, []wire.ExtractItem, error) {
	return c.FetchKeysContext(background(), pkg, r)
}

// FetchKeysContext is FetchKeys under a request context: the current
// trace (if any) rides the extract frame so the PKG's spans stitch to
// the client's.
func (c *Client) FetchKeysContext(ctx context.Context, pkg *wire.Client, r *Retrieval) (map[keyIndex]*bfibe.PrivateKey, []wire.ExtractItem, error) {
	// Deduplicate (AID, nonce) pairs: several messages can share a key
	// only if a device reused a nonce, which compliant devices never do,
	// but the dedup keeps the request minimal either way.
	seen := make(map[keyIndex]int)
	var items []wire.ExtractItem
	for _, it := range r.Items {
		k := keyIndexOf(it.AID, it.Nonce)
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = len(items)
		items = append(items, wire.ExtractItem{AID: it.AID, Nonce: it.Nonce})
	}
	if len(items) == 0 {
		return map[keyIndex]*bfibe.PrivateKey{}, nil, nil
	}
	authBlob, err := ticket.SealAuthenticator(r.SessionKey, &ticket.Authenticator{
		RC:        c.id,
		Timestamp: c.now(),
	})
	if err != nil {
		return nil, nil, err
	}
	req := wire.ExtractRequest{
		RC:            c.id,
		TicketBlob:    r.TicketBlob,
		Authenticator: authBlob,
		Items:         items,
	}
	rpcCtx, rpcSp := obsv.StartSpan(ctx, "rpc.extract")
	resp, err := pkg.Do(wire.Frame{Type: wire.TExtract, Payload: req.Marshal(), Trace: obsv.ContextTrace(rpcCtx)})
	rpcSp.SetErr(err)
	rpcSp.End()
	if err != nil {
		return nil, nil, err
	}
	if resp.Type != wire.TExtractResp {
		return nil, nil, fmt.Errorf("rclient: unexpected response type %s", resp.Type)
	}
	er, err := wire.UnmarshalExtractResponse(resp.Payload)
	if err != nil {
		return nil, nil, err
	}
	if len(er.SealedKeys) != len(items) {
		return nil, nil, fmt.Errorf("rclient: got %d keys for %d items", len(er.SealedKeys), len(items))
	}
	// Each sealed key carries its own identity's point, so the AEAD opens
	// and the subgroup checks of the decoded points run across the cores.
	openCtx, openSp := obsv.StartSpan(ctx, "keys.open")
	opened := make([]*bfibe.PrivateKey, len(items))
	err = par.ForEach(openCtx, len(items), func(_ context.Context, i int) error {
		sk, err := keyserver.OpenSealedKey(c.params, r.SessionKey, er.SealedKeys[i])
		opened[i] = sk
		return err
	})
	openSp.SetErr(err)
	openSp.End()
	if err != nil {
		return nil, nil, err
	}
	keys := make(map[keyIndex]*bfibe.PrivateKey, len(items))
	for i, sk := range opened {
		keys[keyIndexOf(items[i].AID, items[i].Nonce)] = sk
	}
	return keys, items, nil
}

// Message is a fully decrypted warehouse message.
type Message struct {
	Seq       uint64
	DeviceID  string
	Timestamp int64
	Payload   []byte
}

// Decrypt opens one envelope with its private key: decapsulate the
// session key from rP via ê(sI, rP) and open the symmetric ciphertext.
func (c *Client) Decrypt(env *Envelope, sk *bfibe.PrivateKey) (*Message, error) {
	d, err := c.params.NewDecapsulator(sk)
	if err != nil {
		return nil, err
	}
	return c.decryptWith(env, d)
}

// decryptWith opens one envelope through a prepared Decapsulator, so
// batch callers amortize the key's pairing precomputation.
func (c *Client) decryptWith(env *Envelope, d *bfibe.Decapsulator) (*Message, error) {
	scheme, err := symenc.ByName(env.Scheme)
	if err != nil {
		return nil, err
	}
	enc, err := bfibe.UnmarshalEncapsulation(c.params, env.U)
	if err != nil {
		return nil, err
	}
	key, err := d.Decapsulate(enc, scheme.KeyLen())
	if err != nil {
		return nil, err
	}
	aad := wire.MessageAAD(env.DeviceID, env.Timestamp, env.Nonce, env.U)
	payload, err := scheme.Open(key, env.Ciphertext, aad)
	if err != nil {
		return nil, fmt.Errorf("rclient: message %d: %w", env.Seq, err)
	}
	return &Message{
		Seq:       env.Seq,
		DeviceID:  env.DeviceID,
		Timestamp: env.Timestamp,
		Payload:   payload,
	}, nil
}

// DecryptRetrieval decrypts every message in a retrieval with the
// extracted keys, in deposit order, fanning the per-key and per-message
// pairing work across a GOMAXPROCS-wide worker pool. The pairing's
// Miller-loop lines are precomputed once per key (bfibe.Decapsulator) and
// shared by all messages under that key — the batch-decryption shape the
// multi-pairing layer exists for — so each message pays only the F_p²
// accumulation, the final exponentiation, and an AEAD open. The first
// failure (a missing key, a bad point, a forged ciphertext) cancels the
// remaining work.
func (c *Client) DecryptRetrieval(ctx context.Context, r *Retrieval, keys map[keyIndex]*bfibe.PrivateKey) ([]*Message, error) {
	if len(r.Items) == 0 {
		return nil, nil
	}
	_, decSp := obsv.StartSpan(ctx, "ibe.decapsulate")
	decSp.SetAttr("messages", fmt.Sprintf("%d", len(r.Items)))
	defer decSp.End()

	// One Decapsulator per distinct key: every message of an (attribute,
	// nonce) group reuses its key's precomputed lines. The protocol's
	// per-message identities make the keys as many as the messages, so
	// the precomputations are spread over the pool too.
	kis := make([]keyIndex, 0, len(keys))
	for ki := range keys {
		kis = append(kis, ki)
	}
	built := make([]*bfibe.Decapsulator, len(kis))
	err := par.ForEach(ctx, len(kis), func(_ context.Context, i int) error {
		d, err := c.params.NewDecapsulator(keys[kis[i]])
		built[i] = d
		return err
	})
	if err != nil {
		return nil, err
	}
	decaps := make(map[keyIndex]*bfibe.Decapsulator, len(kis))
	for i, ki := range kis {
		decaps[ki] = built[i]
	}

	out := make([]*Message, len(r.Items))
	err = par.ForEach(ctx, len(r.Items), func(_ context.Context, i int) error {
		env := &r.Items[i]
		d, ok := decaps[keyIndexOf(env.AID, env.Nonce)]
		if !ok {
			return fmt.Errorf("rclient: missing key for message %d", env.Seq)
		}
		m, err := c.decryptWith(env, d)
		out[i] = m
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RetrieveAndDecrypt runs the full client pipeline: MWS retrieval, PKG
// key extraction, and parallel message decryption, returning plaintext
// messages in deposit order.
func (c *Client) RetrieveAndDecrypt(mws, pkg *wire.Client, fromSeq uint64, limit uint32) ([]*Message, error) {
	return c.RetrieveAndDecryptContext(background(), mws, pkg, fromSeq, limit)
}

// RetrieveAndDecryptContext is RetrieveAndDecrypt under a request
// context, tracing each phase when the context carries a span.
func (c *Client) RetrieveAndDecryptContext(ctx context.Context, mws, pkg *wire.Client, fromSeq uint64, limit uint32) ([]*Message, error) {
	r, err := c.RetrieveContext(ctx, mws, fromSeq, limit)
	if err != nil {
		return nil, err
	}
	if len(r.Items) == 0 {
		return nil, nil
	}
	keys, _, err := c.FetchKeysContext(ctx, pkg, r)
	if err != nil {
		return nil, err
	}
	return c.DecryptRetrieval(ctx, r, keys)
}

// keyIndex identifies a private key by (AID, nonce).
type keyIndex struct {
	aid   uint64
	nonce attr.Nonce
}

func keyIndexOf(aid uint64, nonce []byte) keyIndex {
	var n attr.Nonce
	copy(n[:], nonce)
	return keyIndex{aid: aid, nonce: n}
}
