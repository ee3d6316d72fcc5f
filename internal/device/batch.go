package device

import (
	"context"
	"errors"

	"mwskit/internal/attr"
	"mwskit/internal/par"
	"mwskit/internal/wire"
)

// BatchItem is one message in a batch deposit.
type BatchItem struct {
	Attribute attr.Attribute
	Payload   []byte
}

// BatchResult pairs a batch item's index with its warehouse-assigned
// sequence number.
type BatchResult struct {
	Index int
	Seq   uint64
}

// PrepareDeposits runs the client-side cryptography for a batch of
// messages across a GOMAXPROCS-wide worker pool, returning the prepared
// requests in item order. The per-message work — hash-to-curve (on a
// cache miss), fixed-base rP, pairing exponentiation, sealing, MAC or
// signature — is independent across messages, so it parallelizes cleanly;
// the shared g_ID cache and nonce-epoch state are concurrency-safe.
//
// The first error cancels the remaining work and is returned; ctx
// cancellation does the same.
func (d *Device) PrepareDeposits(ctx context.Context, items []BatchItem) ([]*wire.DepositRequest, error) {
	if len(items) == 0 {
		return nil, nil
	}
	reqs := make([]*wire.DepositRequest, len(items))
	err := par.ForEach(ctx, len(items), func(_ context.Context, i int) error {
		req, err := d.PrepareDeposit(items[i].Attribute, items[i].Payload)
		reqs[i] = req
		return err
	})
	if err != nil {
		return nil, err
	}
	return reqs, nil
}

// DepositBatch prepares a batch in parallel and ships the requests over
// one MWS connection (the wire client serializes frames internally), in
// item order. Results carry the warehouse sequence numbers.
func (d *Device) DepositBatch(ctx context.Context, mws *wire.Client, items []BatchItem) ([]BatchResult, error) {
	if mws == nil {
		return nil, errors.New("device: nil MWS client")
	}
	reqs, err := d.PrepareDeposits(ctx, items)
	if err != nil {
		return nil, err
	}
	results := make([]BatchResult, 0, len(reqs))
	for i, req := range reqs {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		seq, err := d.send(ctx, mws, req)
		if err != nil {
			return results, err
		}
		results = append(results, BatchResult{Index: i, Seq: seq})
	}
	return results, nil
}
