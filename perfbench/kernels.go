package main

import (
	crand "crypto/rand"
	"fmt"
	"time"

	"mwskit/internal/bfibe"
	"mwskit/internal/ec"
	"mwskit/internal/ff"
	"mwskit/internal/pairing"
)

// kernelBudget is the wall time the probe spends on each kernel.
const kernelBudget = 150 * time.Millisecond

// sink keeps probed results reachable so the compiler cannot drop the
// calls that produce them.
var sink struct {
	fe ff.Element
	pt ec.Point
	gt pairing.GT
	sk *bfibe.PrivateKey
	kb []byte
}

// timeKernel runs op in five batches sized to share the budget and
// returns the median batch's time per call.
func timeKernel(op func()) time.Duration {
	op() // lazy tables and allocator warm-up stay out of the figure
	t0 := time.Now()
	op()
	per := max(time.Since(t0), time.Nanosecond)
	n := max(1, int(kernelBudget/5/per))
	batches := make([]time.Duration, 5)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		batches[b] = time.Since(t0) / time.Duration(n)
	}
	return quantile(batches, 0.5)
}

// probeKernels times the crypto kernels the workloads' spans are made of,
// called directly on the deployment's pairing system, so the per-layer
// counts can be turned into time.
func probeKernels(params *bfibe.Params) (map[string]float64, error) {
	sys := params.Sys
	f, c := sys.Curve.F, sys.Curve
	x, err := f.RandomNonZero(crand.Reader)
	if err != nil {
		return nil, err
	}
	y, err := f.RandomNonZero(crand.Reader)
	if err != nil {
		return nil, err
	}
	k, err := sys.RandomScalar(crand.Reader)
	if err != nil {
		return nil, err
	}
	probeParams, master, err := bfibe.Setup(sys, crand.Reader)
	if err != nil {
		return nil, err
	}
	g := sys.G1()
	q := sys.G1Comb().Mul(k)
	gt := sys.Pair(g, q)
	pre := sys.G1Precomp(q)
	sk, err := master.Extract(probeParams, []byte("perfbench-probe"))
	if err != nil {
		return nil, err
	}
	enc, _, err := probeParams.Encapsulate([]byte("perfbench-probe"), 16, crand.Reader)
	if err != nil {
		return nil, err
	}
	dec, err := probeParams.NewDecapsulator(sk)
	if err != nil {
		return nil, err
	}
	var probeErr error
	counter := 0
	id := func() []byte { counter++; return fmt.Appendf(nil, "perfbench-probe-%d", counter) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	out := map[string]float64{
		"ff.mul_ns":    float64(timeKernel(func() { sink.fe = x.Mul(y) })),
		"ff.square_ns": float64(timeKernel(func() { sink.fe = x.Square() })),
		"ff.inv_us":    us(timeKernel(func() { sink.fe = x.Inv() })),
		"ec.hash_to_subgroup_us": us(timeKernel(func() {
			p, err := c.HashToSubgroup("perfbench/probe", id())
			if err != nil {
				probeErr = err
			}
			sink.pt = p
		})),
		"ec.scalar_mult_secret_us": us(timeKernel(func() { sink.pt = c.ScalarMultSecret(q, k) })),
		"ec.comb_mul_us":           us(timeKernel(func() { sink.pt = sys.G1Comb().Mul(k) })),
		"pairing.pair_us":          us(timeKernel(func() { sink.gt = sys.Pair(g, q) })),
		"pairing.precomp_pair_us":  us(timeKernel(func() { sink.gt = pre.Pair(g) })),
		"pairing.gt_exp_secret_us": us(timeKernel(func() { sink.gt = sys.GTExpSecret(gt, k) })),
		"bfibe.extract_us": us(timeKernel(func() {
			sk, err := master.Extract(probeParams, id())
			if err != nil {
				probeErr = err
			}
			sink.sk = sk
		})),
		"bfibe.decapsulate_us": us(timeKernel(func() {
			kb, err := dec.Decapsulate(enc, 16)
			if err != nil {
				probeErr = err
			}
			sink.kb = kb
		})),
	}
	return out, probeErr
}
