package rclient

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"mwskit/internal/bfibe"
	"mwskit/internal/obsv"
	"mwskit/internal/wire"
)

// depositPage deposits n messages under A1 and retrieves them as one
// page.
func depositPage(t *testing.T, h *netHarness, n int) *Retrieval {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := h.dev.Deposit(h.mwsConn, "A1", []byte(fmt.Sprintf("reading-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ret, err := h.rc.Retrieve(h.mwsConn, 0, uint32(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Items) != n {
		t.Fatalf("retrieved %d of %d messages", len(ret.Items), n)
	}
	return ret
}

// tamperingPKG serves extract requests through the real PKG and flips
// one bit of the sealed key at index bad before answering.
func tamperingPKG(t *testing.T, h *netHarness, bad int) *wire.Client {
	t.Helper()
	r := wire.NewRouter()
	wire.Route(r, wire.TExtract, wire.TExtractResp, wire.UnmarshalExtractRequest,
		func(ctx context.Context, req *wire.ExtractRequest) (*wire.ExtractResponse, error) {
			resp, err := h.pkgSvc.Extract(ctx, req)
			if err == nil && bad < len(resp.SealedKeys) {
				resp.SealedKeys[bad][len(resp.SealedKeys[bad])/2] ^= 1
			}
			return resp, err
		})
	srv := wire.NewServer(r, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := wire.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestFetchKeysTamperedKeyFails(t *testing.T) {
	h := newNetHarness(t)
	ret := depositPage(t, h, 16)
	pkg := tamperingPKG(t, h, 11)
	keys, _, err := h.rc.FetchKeysContext(context.Background(), pkg, ret)
	if err == nil {
		t.Fatal("a tampered sealed key among 16 was accepted")
	}
	if keys != nil {
		t.Fatal("keys returned alongside the error")
	}
}

// TestPullChecksEachPointOnce pins the order checks of a page: one per
// decrypted message (the encapsulation decoder's) and one per key (the
// private-key decoder's), none repeated by decapsulation.
func TestPullChecksEachPointOnce(t *testing.T) {
	h := newNetHarness(t)
	const n = 16
	ret := depositPage(t, h, n)
	publicMults := func(f func()) uint64 {
		before := obsv.CounterMap()["scalar_mult_public"]
		f()
		return obsv.CounterMap()["scalar_mult_public"] - before
	}

	var (
		keys map[keyIndex]*bfibe.PrivateKey
		err  error
	)
	// The in-process PKG hashes each identity to G1, clearing the
	// cofactor with one public multiplication per key; the client's
	// decoder checks each returned key once.
	if got := publicMults(func() { keys, _, err = h.rc.FetchKeysContext(context.Background(), h.pkgConn, ret) }); err != nil || got != 2*n {
		t.Fatalf("fetching %d keys: %d public multiplications, err %v; want %d", n, got, err, 2*n)
	}
	var msgs []*Message
	if got := publicMults(func() { msgs, err = h.rc.DecryptRetrieval(context.Background(), ret, keys) }); err != nil || got != n {
		t.Fatalf("decrypting %d messages: %d order checks, err %v; want %d", n, got, err, n)
	}
	for i, m := range msgs {
		if want := fmt.Sprintf("reading-%d", i); !bytes.Equal(m.Payload, []byte(want)) {
			t.Fatalf("message %d = %q, want %q", i, m.Payload, want)
		}
	}
}
