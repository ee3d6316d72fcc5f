package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"syscall"
	"time"

	"mwskit/internal/bfibe"
	"mwskit/internal/obsv"
)

// readbackPagesPerSecond sizes the read-back of a deposit workload: the
// pages it pulls back after its measured phase, per second of that
// phase (96 pages after 20 s), to check the stored messages and give the
// pull metrics a value there too.
const readbackPagesPerSecond = 4.8

// preloadPerSecond sizes utility-pull's warehouse: messages preloaded per
// second of measured pull, well above the pull rate of the host the
// benchmark was sized on, so the cursor never wraps. A pull that drains
// the warehouse early stops there; its rate stays a per-second figure.
const preloadPerSecond = 200

// pullDepositShare is the share of the measured window for which
// utility-pull deposits on deposit-fresh's open-loop schedule after its
// preload (10 s of a 20 s run), to give the deposit metrics a value
// there too.
const pullDepositShare = 0.5

// counterDelta is the change of the obsv process counters over a phase.
type counterDelta map[string]uint64

func bracket() func() counterDelta {
	before := obsv.CounterMap()
	return func() counterDelta {
		d := counterDelta{}
		for k, v := range obsv.CounterMap() {
			d[k] = v - before[k]
		}
		return d
	}
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS returns the process's peak resident set size in bytes.
func maxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // Linux reports KiB
}

// pass is everything one deployment's run of a workload measured.
type pass struct {
	w workload

	setups  []time.Duration // fixed set-up, once per repetition
	preload time.Duration   // utility-pull's warehouse preload, not part of setup_s

	// The deposit phase: the measured one on deposit workloads, the
	// open-loop window after the preload on utility-pull.
	deposits   []depositSample
	depElapsed time.Duration
	depCount   counterDelta
	storedRate float64 // MWS data-directory bytes per acked payload byte

	// The pull phase: the measured one on utility-pull, the read-back on
	// deposit workloads.
	pages      []pageSample
	pulled     int
	pullElapse time.Duration

	// The measured phase.
	ops      int
	cpu      time.Duration
	measured counterDelta

	walFsyncP50 time.Duration
	backend     string
	shards      int
	params      *bfibe.Params

	mwsSpans, pkgSpans, cliSpans []obsv.SpanRecord

	attempted, failed int
	problems          []string // failed correctness checks
}

// measure sets the workload up cfg.setups times, keeps the last
// deployment, runs the workload on it and checks the outcome.
func measure(cfg config, w workload, traced bool, setups int) (*pass, error) {
	p := &pass{w: w}
	var r *runner
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		e, err := newEnv(cfg, w, traced)
		if err != nil {
			return nil, err
		}
		rr := newRunner(cfg, w, e)
		if w.epoch > 1 {
			// Warm the g_ID cache: each generator's first deposit pays the
			// pairing of its device's first nonce epoch.
			warm := rr.closedLoop(context.Background(), 1)
			for _, s := range warm {
				if s.err != nil {
					e.close()
					return nil, fmt.Errorf("warm-up deposit: %w", s.err)
				}
			}
		}
		p.setups = append(p.setups, time.Since(t0))
		if i < setups-1 {
			e.close()
			continue
		}
		r = rr
	}
	defer r.e.close()
	ctx := context.Background()
	p.params = r.e.dep.Params()
	p.backend = fmt.Sprintf("%T", r.e.dep.MWS.Store())
	p.shards = r.e.dep.MWS.Store().Shards()
	window := cfg.seconds

	if w.pull {
		t0 := time.Now()
		pre := r.closedLoop(ctx, int(math.Ceil(preloadPerSecond*window.Seconds()/generators)))
		p.preload = time.Since(t0)
		for _, s := range pre {
			p.attempted++
			if s.err != nil {
				p.failed++
				p.problems = append(p.problems, "preload deposit failed: "+s.err.Error())
			}
		}
		done := bracket()
		p.deposits, p.depElapsed = r.openLoop(ctx, time.Duration(pullDepositShare*float64(window)))
		p.depCount = done()
		if err := p.measureStored(r); err != nil {
			return nil, err
		}
		cpu0 := cpuTime()
		done = bracket()
		var err error
		p.pages, p.pullElapse, err = r.pull(ctx, 0, time.Now().Add(window), 0)
		p.cpu = cpuTime() - cpu0
		if err != nil {
			return nil, err
		}
		p.measured = done()
		p.ops = p.countPulled()
	} else {
		cpu0 := cpuTime()
		done := bracket()
		p.deposits, p.depElapsed = r.openLoop(ctx, window)
		p.cpu = cpuTime() - cpu0
		p.depCount = done()
		p.measured = p.depCount
		p.ops = len(p.deposits)
		if err := p.measureStored(r); err != nil {
			return nil, err
		}
		seqs := r.led.seqs()
		if len(seqs) == 0 {
			return nil, fmt.Errorf("%s: no deposit was acknowledged", w.name)
		}
		rng := rand.New(rand.NewPCG(uint64(cfg.seed), 9))
		from := seqs[rng.IntN(len(seqs)/2+1)]
		var err error
		pages := int(math.Ceil(readbackPagesPerSecond * window.Seconds()))
		if p.pages, p.pullElapse, err = r.pull(ctx, from, time.Now().Add(time.Minute), pages); err != nil {
			return nil, err
		}
	}
	p.pulled = p.countPulled()

	for _, g := range obsv.GlobalGauges() {
		if g.Name == "wal_fsync_p50_ns" {
			p.walFsyncP50 = time.Duration(g.Value)
		}
	}
	if traced {
		p.mwsSpans = r.e.mwsT.Snapshot(0, 0)
		p.pkgSpans = r.e.pkgT.Snapshot(0, 0)
		p.cliSpans = r.e.cliT.Snapshot(0, 0)
	}
	if err := r.e.stopServing(); err != nil {
		return nil, fmt.Errorf("stop deployment: %w", err)
	}
	p.check(cfg, r)
	return p, nil
}

// mergePasses pools the passes of a traced run that share a role:
// samples, spans, checks and counts are joined, and the MWS space cost
// is averaged. The metrics of the pooled pass are then taken over every
// request of every pass.
func mergePasses(ps []*pass) *pass {
	m := &pass{w: ps[0].w, depCount: counterDelta{}, measured: counterDelta{}}
	for _, p := range ps {
		m.setups = append(m.setups, p.setups...)
		m.preload += p.preload
		m.deposits = append(m.deposits, p.deposits...)
		m.depElapsed += p.depElapsed
		m.storedRate += p.storedRate / float64(len(ps))
		m.pages = append(m.pages, p.pages...)
		m.pulled += p.pulled
		m.pullElapse += p.pullElapse
		m.ops += p.ops
		m.cpu += p.cpu
		for k, v := range p.depCount {
			m.depCount[k] += v
		}
		for k, v := range p.measured {
			m.measured[k] += v
		}
		m.mwsSpans = append(m.mwsSpans, p.mwsSpans...)
		m.pkgSpans = append(m.pkgSpans, p.pkgSpans...)
		m.cliSpans = append(m.cliSpans, p.cliSpans...)
		m.attempted += p.attempted
		m.failed += p.failed
		m.problems = append(m.problems, p.problems...)
	}
	last := ps[len(ps)-1]
	m.walFsyncP50, m.backend, m.shards, m.params = last.walFsyncP50, last.backend, last.shards, last.params
	return m
}

// measureStored records the MWS data directory's size per acked payload
// byte.
func (p *pass) measureStored(r *runner) error {
	size, err := dirBytes(r.e.mwsDir())
	if err != nil {
		return err
	}
	r.led.mu.Lock()
	acked := r.led.payloadBytes
	r.led.mu.Unlock()
	p.storedRate = ratio(float64(size), float64(acked))
	return nil
}

func (p *pass) countPulled() int {
	n := 0
	for _, s := range p.pages {
		n += s.msgs
	}
	return n
}

// check runs the correctness checks on a finished pass: unique sequence
// numbers, every pulled message as deposited, no plaintext at the MWS,
// and no failed operation.
func (p *pass) check(cfg config, r *runner) {
	for _, s := range p.deposits {
		p.attempted++
		if s.err != nil {
			p.failed++
			p.problems = append(p.problems, "deposit failed: "+s.err.Error())
		}
	}
	for _, s := range p.pages {
		p.attempted++
		if s.err != nil {
			p.failed++
			p.problems = append(p.problems, "pull failed: "+s.err.Error())
		}
	}
	if len(r.led.dups) > 0 {
		p.problems = append(p.problems, fmt.Sprintf("%d acknowledged deposits reused a sequence number", len(r.led.dups)))
	}
	p.problems = append(p.problems, r.mismatch...)
	if p.pulled == 0 {
		p.problems = append(p.problems, "no message was pulled back")
	}
	if cfg.fault == faultPlantMarker {
		if err := plantMarker(r.e.mwsDir()); err != nil {
			p.problems = append(p.problems, "plant marker: "+err.Error())
		}
	}
	hits, err := scanPlaintext(r.e.mwsDir())
	if err != nil {
		p.problems = append(p.problems, "plaintext scan: "+err.Error())
	}
	for _, h := range hits {
		p.problems = append(p.problems, "plaintext payload marker found in "+h)
	}
}
