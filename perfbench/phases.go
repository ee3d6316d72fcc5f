package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"mwskit/internal/obsv"
	"mwskit/internal/rclient"
	"mwskit/internal/sim"
	"mwskit/internal/wire"
)

// generators is the number of load-generating goroutines, each with its
// own MWS connection; it matches the 2-core host the benchmark was sized
// on.
const generators = 2

// pageSize is how many messages one pull asks the MWS for.
const pageSize = 16

// failedLatency stands in for the latency of a failed operation, so a
// failure counts as missing every latency limit.
const failedLatency = time.Hour

// workload is one named input shape.
type workload struct {
	name    string
	fleet   map[sim.MeterKind]int // meters per kind at the one Figure 1 site
	payload int                   // bytes per reading
	epoch   int                   // deposits sharing one nonce per device
	rate    float64               // open-loop offered deposits/s
	pull    bool                  // the measured phase pulls a preloaded warehouse
}

var figure1Fleet = map[sim.MeterKind]int{sim.Electric: 30, sim.Water: 30, sim.Gas: 30}

var workloads = []workload{
	{
		name:    "deposit-fresh",
		fleet:   figure1Fleet,
		payload: 64,
		epoch:   1,
		rate:    100,
	},
	{
		name:    "deposit-bulk",
		fleet:   map[sim.MeterKind]int{sim.Electric: 1, sim.Gas: 1},
		payload: 16 << 10,
		epoch:   64,
		rate:    200,
	},
	{
		name:    "utility-pull",
		fleet:   figure1Fleet,
		payload: 64,
		epoch:   1,
		rate:    100,
		pull:    true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sent names a deposited payload: the meter and its message index, from
// which payloadFor regenerates the bytes.
type sent struct{ meter, n int }

// ledger records every acknowledged deposit of one deployment.
type ledger struct {
	mu           sync.Mutex
	bySeq        map[uint64]sent
	dups         []uint64
	payloadBytes int64
}

func newLedger() *ledger { return &ledger{bySeq: make(map[uint64]sent)} }

func (l *ledger) ack(seq uint64, s sent, size int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.bySeq[seq]; ok {
		l.dups = append(l.dups, seq)
	}
	l.bySeq[seq] = s
	l.payloadBytes += int64(size)
}

// seqs returns the acknowledged sequence numbers in order.
func (l *ledger) seqs() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]uint64, 0, len(l.bySeq))
	for s := range l.bySeq {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// depositSample times one deposit. latency runs from the deposit's due
// (open loop) or issue (closed loop) time to its acknowledgement.
type depositSample struct {
	due                                       time.Time
	latency, queueWait, prepare, marshal, rtt time.Duration
	traceID                                   uint64
	err                                       error
}

// pageSample times one Retrieve → FetchKeys → DecryptRetrieval page.
type pageSample struct {
	start                             time.Time
	latency, retrieve, fetch, decrypt time.Duration
	msgs                              int
	traceID                           uint64
	err                               error
}

// runner drives the generated load against one env.
type runner struct {
	cfg config
	w   workload
	e   *env
	led *ledger

	// Written by the one goroutine that pulls.
	mismatch []string       // failed read-back checks, for the report
	pulled   map[uint64]int // how often each sequence number was pulled
}

func newRunner(cfg config, w workload, e *env) *runner {
	return &runner{cfg: cfg, w: w, e: e, led: newLedger(), pulled: make(map[uint64]int)}
}

// deposit sends meter m's n-th message over conn; due is when it was due
// (open loop) or issued (closed loop).
func (r *runner) deposit(ctx context.Context, conn *wire.Client, m *meter, n int, due time.Time) depositSample {
	payload := payloadFor(r.cfg.seed, m.idx, n, r.w.payload)
	if r.cfg.fault == faultFlipPayload {
		payload[len(payload)-1] ^= 1
	}
	s := depositSample{due: due}
	var sp *obsv.Span
	if r.e.cliT != nil {
		ctx, sp = r.e.cliT.StartRoot(ctx, "deposit")
		s.traceID = sp.Context().TraceID
	}
	t0 := time.Now()
	s.queueWait = t0.Sub(due)
	seq, err := func() (uint64, error) {
		req, err := m.dev.PrepareDepositContext(ctx, m.a, payload)
		t1 := time.Now()
		s.prepare = t1.Sub(t0)
		if err != nil {
			return 0, err
		}
		body := req.Marshal()
		t2 := time.Now()
		s.marshal = t2.Sub(t1)
		resp, err := conn.Do(wire.Frame{Type: wire.TDeposit, Payload: body, Trace: sp.Context()})
		s.rtt = time.Since(t2)
		if err != nil {
			return 0, err
		}
		if resp.Type != wire.TDepositResp {
			return 0, fmt.Errorf("unexpected response %s", resp.Type)
		}
		dr, err := wire.UnmarshalDepositResponse(resp.Payload)
		if err != nil {
			return 0, err
		}
		return dr.Seq, nil
	}()
	sp.SetErr(err)
	sp.End()
	s.latency = time.Since(due)
	if err != nil {
		s.err, s.latency = err, failedLatency
		return s
	}
	r.led.ack(seq, sent{meter: m.idx, n: n}, len(payload))
	return s
}

// metersOf returns the meters generator w owns in a closed loop; each
// meter belongs to exactly one generator, so its device and message
// counter are never shared.
func (r *runner) metersOf(w int) []*meter {
	var out []*meter
	for _, m := range r.e.meters {
		if m.idx%generators == w {
			out = append(out, m)
		}
	}
	return out
}

// fanOut runs fn once per generator goroutine and merges their samples.
func fanOut(fn func(w int) []depositSample) []depositSample {
	parts := make([][]depositSample, generators)
	var wg sync.WaitGroup
	for w := 0; w < generators; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = fn(w)
		}()
	}
	wg.Wait()
	var out []depositSample
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// openLoop deposits on a seeded schedule for the given window, whether
// or not the warehouse keeps up. Every meter reports on its own clock
// once per period. As a head-end staggers its meters, each meter owns
// one slot of period/meters, given by a seeded permutation, and reports
// at a seeded offset inside it; the two generators take alternate slots.
// It returns the samples and the time until the last ack.
func (r *runner) openLoop(ctx context.Context, window time.Duration) ([]depositSample, time.Duration) {
	type arrival struct {
		at time.Duration
		m  *meter
		n  int
	}
	slot := time.Duration(float64(time.Second) / r.w.rate)
	period := slot * time.Duration(len(r.e.meters))
	rng := rand.New(rand.NewPCG(uint64(r.cfg.seed), 1))
	slots := rng.Perm(len(r.e.meters))
	plan := make([][]arrival, generators)
	for i, m := range r.e.meters {
		w := slots[i] % generators
		for at := slot*time.Duration(slots[i]) + time.Duration(rng.Int64N(int64(slot))); at < window; at += period {
			plan[w] = append(plan[w], arrival{at: at, m: m, n: m.next})
			m.next++
		}
	}
	for _, arr := range plan {
		sort.Slice(arr, func(i, j int) bool { return arr[i].at < arr[j].at })
	}
	start := time.Now()
	samples := fanOut(func(w int) []depositSample {
		out := make([]depositSample, 0, len(plan[w]))
		for _, a := range plan[w] {
			due := start.Add(a.at)
			time.Sleep(time.Until(due))
			out = append(out, r.deposit(ctx, r.e.mws[w], a.m, a.n, due))
		}
		return out
	})
	return samples, time.Since(start)
}

// closedLoop has each generator send quota deposits back to back,
// choosing among its meters from a seeded stream.
func (r *runner) closedLoop(ctx context.Context, quota int) []depositSample {
	return fanOut(func(w int) []depositSample {
		rng := rand.New(rand.NewPCG(uint64(r.cfg.seed), uint64(2+w)))
		mine := r.metersOf(w)
		out := make([]depositSample, 0, quota)
		for i := 0; i < quota; i++ {
			m := mine[rng.IntN(len(mine))]
			n := m.next
			m.next++
			out = append(out, r.deposit(ctx, r.e.mws[w], m, n, time.Now()))
		}
		return out
	})
}

// pull reads pages from the cursor on until the deadline passes, maxPages
// pages are read (when positive), or the warehouse has no more messages;
// it checks every message against the ledger.
func (r *runner) pull(ctx context.Context, from uint64, deadline time.Time, maxPages int) ([]pageSample, time.Duration, error) {
	if err := r.e.pullConns(); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	var out []pageSample
	cursor := from
	for (maxPages <= 0 || len(out) < maxPages) && time.Now().Before(deadline) {
		s, next, done := r.page(ctx, cursor)
		if done {
			break
		}
		out = append(out, s)
		cursor = next
	}
	return out, time.Since(start), nil
}

// page pulls one page at cursor, returning the cursor after it; done
// reports an empty page. The messages are checked after the page is
// timed.
func (r *runner) page(ctx context.Context, cursor uint64) (s pageSample, next uint64, done bool) {
	var sp *obsv.Span
	if r.e.cliT != nil {
		ctx, sp = r.e.cliT.StartRoot(ctx, "pull")
		s.traceID = sp.Context().TraceID
		defer sp.End()
	}
	next = cursor
	var msgs []*rclient.Message
	err := func() error {
		t0 := time.Now()
		s.start = t0
		ret, err := r.e.rc.RetrieveContext(ctx, r.e.mws[0], cursor, pageSize)
		t1 := time.Now()
		s.retrieve = t1.Sub(t0)
		if err != nil {
			return err
		}
		if len(ret.Items) == 0 {
			done = true
			return nil
		}
		next = ret.Items[len(ret.Items)-1].Seq + 1
		keys, _, err := r.e.rc.FetchKeysContext(ctx, r.e.pkg, ret)
		t2 := time.Now()
		s.fetch = t2.Sub(t1)
		if err != nil {
			return err
		}
		msgs, err = r.e.rc.DecryptRetrieval(ctx, ret, keys)
		s.decrypt = time.Since(t2)
		s.latency = time.Since(t0)
		return err
	}()
	if err != nil {
		sp.SetErr(err)
		s.err, s.latency = err, failedLatency
		return s, next, false
	}
	for _, m := range msgs {
		r.check(m.Seq, m.DeviceID, m.Payload)
	}
	s.msgs = len(msgs)
	return s, next, done
}

// check compares one pulled message with what was deposited under its
// sequence number.
func (r *runner) check(seq uint64, deviceID string, payload []byte) {
	r.pulled[seq]++
	fail := func(format string, args ...any) {
		r.mismatch = append(r.mismatch, fmt.Sprintf("seq %d: ", seq)+fmt.Sprintf(format, args...))
	}
	if r.pulled[seq] > 1 {
		fail("pulled twice")
	}
	r.led.mu.Lock()
	s, ok := r.led.bySeq[seq]
	r.led.mu.Unlock()
	if !ok {
		fail("never acknowledged")
		return
	}
	if want := r.e.meters[s.meter].id; deviceID != want {
		fail("device %q, deposited by %q", deviceID, want)
	}
	if !bytes.Equal(payload, payloadFor(r.cfg.seed, s.meter, s.n, r.w.payload)) {
		fail("payload differs from the deposited one")
	}
}
