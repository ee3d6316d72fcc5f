package keyserver

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/obsv"
	"mwskit/internal/policy"
	"mwskit/internal/wire"
)

// twoAttrBindings grants "rc" two attributes under AIDs 1 and 2.
var twoAttrBindings = []policy.Binding{
	{Identity: "rc", Attribute: "ELECTRIC-X", AID: 1},
	{Identity: "rc", Attribute: "WATER-X", AID: 2},
}

// batchRequest builds an extract request for n items alternating between
// AIDs 1 and 2, each with a fresh nonce, and the identity each item's key
// must carry.
func batchRequest(t *testing.T, key []byte, clock *fakeClock, n int) (*wire.ExtractRequest, []byte, [][]byte) {
	t.Helper()
	tb, sk := mintTicket(t, key, "rc", twoAttrBindings, clock.Now())
	req := &wire.ExtractRequest{RC: "rc", TicketBlob: tb, Authenticator: authBlob(t, sk, "rc", clock.Now())}
	ids := make([][]byte, n)
	for i := 0; i < n; i++ {
		nonce, err := attr.NewNonce(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		b := twoAttrBindings[i%2]
		req.Items = append(req.Items, wire.ExtractItem{AID: uint64(b.AID), Nonce: nonce[:]})
		ids[i] = attr.Identity(b.Attribute, nonce)
	}
	return req, sk, ids
}

// secretMults counts the master-key scalar multiplications f runs.
func secretMults(f func()) uint64 {
	before := obsv.CounterMap()["scalar_mult_secret"]
	f()
	return obsv.CounterMap()["scalar_mult_secret"] - before
}

func TestExtractBatchKeysLandByIndex(t *testing.T) {
	s, key, clock := newTestPKG(t)
	req, sk, ids := batchRequest(t, key, clock, 24)
	resp, err := s.Extract(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.SealedKeys) != len(ids) {
		t.Fatalf("got %d keys for %d items", len(resp.SealedKeys), len(ids))
	}
	for i, sealed := range resp.SealedKeys {
		got, err := OpenSealedKey(s.Params(), sk, sealed)
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if !bytes.Equal(got.ID, ids[i]) {
			t.Fatalf("key %d is for another item's identity", i)
		}
	}
}

// TestExtractRefusesBeforeExtracting puts the bad item last: the request
// is refused with the same code as before, and the master key does no
// work for the good items ahead of it.
func TestExtractRefusesBeforeExtracting(t *testing.T) {
	for _, c := range []struct {
		name string
		bad  wire.ExtractItem
		code uint32
	}{
		{"ungranted AID", wire.ExtractItem{AID: 99, Nonce: make([]byte, attr.NonceLen)}, wire.CodeAuth},
		{"malformed nonce", wire.ExtractItem{AID: 1, Nonce: []byte("short")}, wire.CodeBadRequest},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, key, clock := newTestPKG(t)
			req, _, _ := batchRequest(t, key, clock, 8)
			req.Items = append(req.Items, c.bad)
			var err error
			if n := secretMults(func() { _, err = s.Extract(context.Background(), req) }); n != 0 {
				t.Errorf("refused request ran %d master-key multiplications", n)
			}
			if code := wireCode(t, err); code != c.code {
				t.Fatalf("code = %d, want %d", code, c.code)
			}
		})
	}
}

// tripCtx is a context whose deadline "passes" when trip is called, so a
// test can end a request's budget at a chosen point of the work.
type tripCtx struct {
	context.Context
	once    sync.Once
	done    chan struct{}
	tripped atomic.Bool
}

func newTripCtx() *tripCtx {
	return &tripCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *tripCtx) trip() {
	c.once.Do(func() { c.tripped.Store(true); close(c.done) })
}

func (c *tripCtx) Done() <-chan struct{} { return c.done }

func (c *tripCtx) Err() error {
	if c.tripped.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

func TestExtractDeadlineMidBatch(t *testing.T) {
	s, key, clock := newTestPKG(t)
	const n = 4000
	req, _, _ := batchRequest(t, key, clock, n)
	ctx := newTripCtx()
	// Pass the deadline once a few keys have been extracted.
	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	before := obsv.CounterMap()["scalar_mult_secret"]
	go func() {
		defer watcher.Done()
		for obsv.CounterMap()["scalar_mult_secret"]-before < 3 {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
		ctx.trip()
	}()
	_, err := s.Extract(ctx, req)
	close(stop)
	watcher.Wait()
	extracted := obsv.CounterMap()["scalar_mult_secret"] - before
	if code := wireCode(t, err); code != wire.CodeTimeout {
		t.Fatalf("code = %d, want CodeTimeout", code)
	}
	if extracted < 3 || extracted >= n {
		t.Fatalf("%d of %d keys extracted; the deadline should stop the batch midway", extracted, n)
	}
}

func TestExtractConcurrentRequests(t *testing.T) {
	s, key, clock := newTestPKG(t)
	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		req, sk, ids := batchRequest(t, key, clock, 6)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Extract(context.Background(), req)
			if err != nil {
				errs <- err
				return
			}
			for i, sealed := range resp.SealedKeys {
				got, err := OpenSealedKey(s.Params(), sk, sealed)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got.ID, ids[i]) {
					errs <- fmt.Errorf("key %d is for another item's identity", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
