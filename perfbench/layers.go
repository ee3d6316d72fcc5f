package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"mwskit/internal/obsv"
)

// attributionTolerance bounds how far the sum of the traced stage
// medians along a blocking path may sit from the untraced end-to-end p50
// it explains, as a share of that p50. The untraced p50 comes from the
// passes interleaved with the traced ones, so the tolerance covers the
// tracing overhead and what drift the interleaving leaves: gaps of up to
// 0.08 on the shared 2-core VM the benchmark was sized on. A missing
// stage worth more than a fifth of its path, or a larger tracing
// distortion, fails.
const attributionTolerance = 0.20

// layerMetric is one per-layer metric of the traced run and the
// end-to-end metric it should move.
type layerMetric struct {
	name, unit string
	moves      string // end-to-end metric and workload it should move
	littleOn   string // workload where it should not move
}

var layerMetrics = []layerMetric{
	{"gen.queue_wait_us", "us", "deposit_p50_ms on deposit-fresh", ""},
	{"device.prepare_us", "us", "deposit_p50_ms, cpu_ms_per_op on deposit-fresh", "deposit-bulk"},
	{"bfibe.encapsulate_us", "us", "deposit_p50_ms on deposit-fresh", "deposit-bulk"},
	{"bfibe.gid_hit_rate", "ratio", "explains deposit-fresh vs deposit-bulk", ""},
	{"pairing.ops_per_op", "count", "count per measured op; repeats exactly", ""},
	{"symenc.seal_us", "us", "deposit_p50_ms on deposit-bulk", "deposit-fresh"},
	{"macauth.compute_us", "us", "deposit_p50_ms on deposit-bulk", "deposit-fresh"},
	{"wire.marshal_us", "us", "deposit_p50_ms on deposit-bulk", "deposit-fresh"},
	{"wire.deposit_rtt_us", "us", "deposit_p50_ms on deposit-bulk", "deposit-fresh"},
	{"wire.bytes_per_op", "B", "stored_bytes_per_payload_byte", ""},
	{"mws.deposit_us", "us", "deposit_p50_ms, cpu_ms_per_op on deposit-bulk", "deposit-fresh"},
	{"mws.auth_us", "us", "deposit_p50_ms, cpu_ms_per_op on deposit-bulk", "deposit-fresh"},
	{"mws.replay_us", "us", "deposit_p50_ms, cpu_ms_per_op on deposit-bulk", "deposit-fresh"},
	{"storage.append_us", "us", "deposit_p50_ms on deposit-bulk", "utility-pull"},
	{"wal.append_us", "us", "deposit_p50_ms on deposit-bulk", "deposit-fresh"},
	{"wal.fsync_us", "us", "deposit_p50_ms on deposit-bulk", "deposit-fresh"},
	{"wal.fsyncs_per_deposit", "count", "deposit_p50_ms on deposit-bulk", ""},
	{"storage.write_bytes_per_payload_byte", "ratio", "stored_bytes_per_payload_byte", ""},
	{"rclient.retrieve_us", "us", "pull_page_p50_ms, pull_msgs_per_s on utility-pull", "deposit-*"},
	{"rclient.fetch_keys_us", "us", "pull_page_p50_ms, pull_msgs_per_s on utility-pull", "deposit-*"},
	{"rclient.decrypt_us_per_msg", "us", "pull_page_p50_ms, pull_msgs_per_s on utility-pull", "deposit-*"},
	{"ticket.token_open_us", "us", "pull_page_p50_ms on utility-pull", "deposit-*"},
	{"ticket.seal_us", "us", "pull_page_p50_ms on utility-pull", "deposit-*"},
	{"ticket.open_us", "us", "pull_page_p50_ms on utility-pull", "deposit-*"},
	{"mws.retrieve_us", "us", "pull_page_p50_ms on utility-pull", "deposit-*"},
	{"mws.policy_us", "us", "pull_page_p50_ms on utility-pull", "deposit-*"},
	{"storage.scan_us", "us", "pull_page_p50_ms on utility-pull", "deposit-*"},
	{"keyserver.extract_us_per_key", "us", "pull_msgs_per_s on utility-pull", "deposit-*"},
	{"ff.mul_ns", "ns", "every crypto span on all three workloads", ""},
	{"ff.square_ns", "ns", "every crypto span on all three workloads", ""},
	{"ff.inv_us", "us", "every crypto span on all three workloads", ""},
	{"ec.hash_to_subgroup_us", "us", "deposit_p50_ms on deposit-fresh", ""},
	{"ec.scalar_mult_secret_us", "us", "pull_msgs_per_s on utility-pull", ""},
	{"ec.comb_mul_us", "us", "deposit_p50_ms on deposit-bulk", ""},
	{"pairing.pair_us", "us", "deposit_p50_ms on deposit-fresh", ""},
	{"pairing.precomp_pair_us", "us", "pull_msgs_per_s on utility-pull", ""},
	{"pairing.gt_exp_secret_us", "us", "deposit_p50_ms on deposit-bulk", ""},
	{"bfibe.extract_us", "us", "pull_msgs_per_s on utility-pull", ""},
	{"bfibe.decapsulate_us", "us", "pull_msgs_per_s on utility-pull", ""},
}

// spanIndex groups one tracer's finished spans of the kept traces:
// durations by "<root>/<name>" (a root span by its own name), and each
// trace's root.
type spanIndex struct {
	dur   map[string][]time.Duration
	items map[string][]float64 // the "items" attribute, for per-key rates
	roots map[uint64]obsv.SpanRecord
}

// indexSpans indexes the spans of the traces in keep, so every span row
// describes the same requests as the timer rows beside it.
func indexSpans(recs []obsv.SpanRecord, keep map[uint64]bool) spanIndex {
	ids := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		ids[r.SpanID] = true
	}
	ix := spanIndex{dur: map[string][]time.Duration{}, items: map[string][]float64{}, roots: map[uint64]obsv.SpanRecord{}}
	for _, r := range recs {
		if keep[r.TraceID] && !ids[r.ParentID] {
			ix.roots[r.TraceID] = r
		}
	}
	for _, r := range recs {
		if !keep[r.TraceID] {
			continue
		}
		key := r.Name
		if root, ok := ix.roots[r.TraceID]; ok && root.SpanID != r.SpanID {
			key = root.Name + "/" + r.Name
		}
		ix.dur[key] = append(ix.dur[key], r.Duration)
		for _, a := range r.Attrs {
			if a.Key == "items" {
				if n, err := strconv.Atoi(a.Value); err == nil && n > 0 {
					ix.items[key] = append(ix.items[key], float64(r.Duration)/float64(time.Microsecond)/float64(n))
				}
			}
		}
	}
	return ix
}

func (ix spanIndex) us(key string) float64 { return medianDur(ix.dur[key], time.Microsecond) }

// keptTraces returns the trace IDs of the pass's deposit and page
// samples. Spans of other traces, from utility-pull's preload or
// deposit-bulk's warm-up, are left out of every per-layer metric.
func keptTraces(p *pass) map[uint64]bool {
	keep := make(map[uint64]bool, len(p.deposits)+len(p.pages))
	for _, s := range p.deposits {
		keep[s.traceID] = true
	}
	for _, s := range p.pages {
		keep[s.traceID] = true
	}
	return keep
}

// layerValues computes every per-layer metric of a traced pass except
// the kernel probe's. wal.fsync_us alone is not the pass's own: obsv
// exposes the WAL fsync latency only as a process-lifetime gauge, which
// on a traced run also covers the set-up and the untraced reference
// pass.
func layerValues(p *pass) map[string]float64 {
	keep := keptTraces(p)
	mws, pkg, cli := indexSpans(p.mwsSpans, keep), indexSpans(p.pkgSpans, keep), indexSpans(p.cliSpans, keep)
	var qw, prep, marshal, rtt []time.Duration
	for _, s := range p.deposits {
		if s.err == nil {
			qw, prep, marshal, rtt = append(qw, s.queueWait), append(prep, s.prepare), append(marshal, s.marshal), append(rtt, s.rtt)
		}
	}
	var ret, fetch []time.Duration
	var decPerMsg []float64
	for _, s := range p.pages {
		if s.err == nil {
			ret, fetch = append(ret, s.retrieve), append(fetch, s.fetch)
			decPerMsg = append(decPerMsg, float64(s.decrypt)/float64(time.Microsecond)/float64(s.msgs))
		}
	}
	dc, mc := p.depCount, p.measured
	deposits := float64(len(prep))
	return map[string]float64{
		"gen.queue_wait_us":                    medianDur(qw, time.Microsecond),
		"device.prepare_us":                    medianDur(prep, time.Microsecond),
		"bfibe.encapsulate_us":                 cli.us("deposit/ibe.encapsulate"),
		"bfibe.gid_hit_rate":                   ratio(float64(dc["gid_cache_hits"]), float64(dc["gid_cache_hits"]+dc["gid_cache_misses"])),
		"pairing.ops_per_op":                   ratio(float64(mc["pairing_ops"]), float64(p.ops)),
		"symenc.seal_us":                       cli.us("deposit/symenc.seal"),
		"macauth.compute_us":                   cli.us("deposit/auth"),
		"wire.marshal_us":                      medianDur(marshal, time.Microsecond),
		"wire.deposit_rtt_us":                  medianDur(rtt, time.Microsecond),
		"wire.bytes_per_op":                    ratio(float64(mc["conn_in_bytes"]+mc["conn_out_bytes"]), float64(p.ops)),
		"mws.deposit_us":                       mws.us("Deposit"),
		"mws.auth_us":                          mws.us("Deposit/auth"),
		"mws.replay_us":                        mws.us("Deposit/replay"),
		"storage.append_us":                    mws.us("Deposit/store.write"),
		"wal.append_us":                        mws.us("Deposit/wal.append"),
		"wal.fsync_us":                         float64(p.walFsyncP50) / float64(time.Microsecond),
		"wal.fsyncs_per_deposit":               ratio(float64(dc["wal_fsyncs"]), deposits),
		"storage.write_bytes_per_payload_byte": ratio(float64(dc["store_write_bytes"]), deposits*float64(p.w.payload)),
		"rclient.retrieve_us":                  medianDur(ret, time.Microsecond),
		"rclient.fetch_keys_us":                medianDur(fetch, time.Microsecond),
		"rclient.decrypt_us_per_msg":           medianFloat(decPerMsg),
		"ticket.token_open_us":                 cli.us("pull/token.open"),
		"ticket.seal_us":                       mws.us("Retrieve/ticket.seal"),
		"ticket.open_us":                       pkg.us("Extract/ticket.open"),
		"mws.retrieve_us":                      mws.us("Retrieve"),
		"mws.policy_us":                        mws.us("Retrieve/policy"),
		"storage.scan_us":                      mws.us("Retrieve/store.read"),
		"keyserver.extract_us_per_key":         medianFloat(pkg.items["Extract/ibe.extract"]),
	}
}

// closure is one blocking path's attribution: the sum of the medians of
// its traced stages, the per-layer rows, against the untraced end-to-end
// p50 they should account for.
type closure struct {
	Path   string  `json:"path"`
	SumMs  float64 `json:"stage_medians_sum_ms"`
	P50Ms  float64 `json:"untraced_p50_ms"`
	Gap    float64 `json:"gap"`
	Closes bool    `json:"closes"`
}

// newClosure sums the median of each stage's durations and compares the
// sum with p50Ms.
func newClosure(path string, stages [][]time.Duration, p50Ms float64) closure {
	c := closure{Path: path, P50Ms: p50Ms}
	for _, ds := range stages {
		c.SumMs += medianDur(ds, time.Millisecond)
	}
	c.Gap = 1 // no untraced reference: nothing to account for
	if p50Ms > 0 {
		c.Gap = math.Abs(c.SumMs-p50Ms) / p50Ms
	}
	c.Closes = c.Gap <= attributionTolerance
	return c
}

// attribute checks that the traced stage medians along each blocking
// path account for that path's p50 in the untraced reference pass ref,
// and that every server span sits inside the client round trip that
// caused it. It returns the closures and the failed checks.
func attribute(p *pass, ref map[string]float64) ([]closure, []string) {
	keep := keptTraces(p)
	mws, pkg := indexSpans(p.mwsSpans, keep), indexSpans(p.pkgSpans, keep)
	deposits := make([][]time.Duration, 3)
	pages := make([][]time.Duration, 3)
	var problems []string
	outside, unmatched := 0, 0
	inside := func(ix spanIndex, trace uint64, name string, rtt time.Duration) {
		root, ok := ix.roots[trace]
		switch {
		case !ok || root.Name != name:
			unmatched++
		case root.Duration > rtt:
			outside++
		}
	}
	for _, s := range p.deposits {
		if s.err != nil {
			continue
		}
		for i, d := range []time.Duration{s.queueWait, s.prepare, s.rtt} {
			deposits[i] = append(deposits[i], d)
		}
		inside(mws, s.traceID, "Deposit", s.rtt)
	}
	for _, s := range p.pages {
		if s.err != nil {
			continue
		}
		for i, d := range []time.Duration{s.retrieve, s.fetch, s.decrypt} {
			pages[i] = append(pages[i], d)
		}
		inside(mws, s.traceID, "Retrieve", s.retrieve)
		inside(pkg, s.traceID, "Extract", s.fetch)
	}
	cs := []closure{
		newClosure("gen.queue_wait + device.prepare + wire.deposit_rtt", deposits, ref["deposit_p50_ms"]),
		newClosure("rclient.retrieve + rclient.fetch_keys + rclient.decrypt", pages, ref["pull_page_p50_ms"]),
	}
	for _, c := range cs {
		if !c.Closes {
			problems = append(problems, fmt.Sprintf("attribution does not close: %s = %.3f ms against untraced p50 %.3f ms (gap %.1f%% > %.0f%%)",
				c.Path, c.SumMs, c.P50Ms, 100*c.Gap, 100*attributionTolerance))
		}
	}
	if outside > 0 {
		problems = append(problems, fmt.Sprintf("%d server spans outlast their RPC's round trip", outside))
	}
	if unmatched > 0 {
		problems = append(problems, fmt.Sprintf("%d RPCs have no server span in the trace", unmatched))
	}
	return cs, problems
}
