// Command perfbench is the mwskit benchmark. It starts an in-process
// deployment (MWS and PKG over loopback TCP) in the configuration the
// daemons use by default, drives one named workload against it from a
// seed, checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of standard output.
//
//	bash perfbench/run.sh --workload deposit-fresh --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 41

// rcKeyBits sizes the RC's token-wrapping key, as `rcclient keygen` and
// core.Deployment do by default.
const rcKeyBits = 2048

// tracedOrder is the order of a traced run's untraced (false) and traced
// (true) passes, each a quarter of the measured window, so each kind
// measures for the whole window in all. It balances both kinds around
// every point of the run, so a linear drift of the host cancels out.
var tracedOrder = []bool{false, true, true, false, true, false, false, true}

// Test-only faults, each of which a correctness check must catch.
const (
	faultFlipPayload = "flip-payload" // every deposit carries one flipped byte
	faultPlantMarker = "plant-marker" // a plaintext marker is planted in the MWS data directory
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	preset   string // bf80; the tests use the fast test preset
	setups   int    // set-up repetitions behind setup_s
	root     string // checkout root, for the source digest
	scratch  string // directory for deployments' data
	fault    string

	// rcKey is the RC's RSA key. The RC generates it on its own machine
	// before it registers, so it is made once per process and not timed
	// as set-up; its heavy-tailed generation time would swamp setup_s.
	rcKey *rsa.PrivateKey
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"deposit_p50_ms", "ms"},
	{"deposit_rate", "1/s"},
	{"pull_msgs_per_s", "1/s"},
	{"pull_page_p50_ms", "ms"},
	{"pull_page_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"stored_bytes_per_payload_byte", "ratio"},
	{"max_rss_mb", "MiB"},
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: deposit-fresh, deposit-bulk or utility-pull")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the fleet's payloads, schedule and meter choices")
	flag.Float64Var(&seconds, "seconds", 20, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.StringVar(&cfg.root, "root", ".", "checkout root, hashed into the fingerprint")
	flag.StringVar(&cfg.scratch, "scratch", "", "directory for the deployments' data (default <root>/.bench_build)")
	flag.Parse()
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.preset, cfg.setups = "bf80", setupRepeats
	if cfg.scratch == "" {
		cfg.scratch = filepath.Join(cfg.root, ".bench_build")
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload and prints the report, ending with the
// result line.
func run(cfg config, out io.Writer) (result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < time.Second || cfg.setups < 1 {
		return result{}, fmt.Errorf("need -seconds >= 1 and -setups >= 1")
	}
	if cfg.rcKey == nil {
		k, err := rsa.GenerateKey(rand.Reader, rcKeyBits)
		if err != nil {
			return result{}, fmt.Errorf("RC key: %w", err)
		}
		cfg.rcKey = k
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g trace=%t preset=%s\n", w.name, cfg.seed, cfg.seconds.Seconds(), cfg.trace, cfg.preset)
	if !cfg.trace {
		p, err := measure(cfg, w, false, cfg.setups)
		if err != nil {
			return result{}, err
		}
		values := endToEndValues(p)
		printEndToEnd(out, p, values)
		fp := newFingerprint(cfg, p)
		res := result{Correct: len(p.problems) == 0, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
		}
		return res, finish(out, fp, p.problems, res)
	}

	// A traced run measures the workload both untraced and traced, on
	// deployments of their own, so the tracing overhead and the
	// attribution have an untraced reference from the same process and
	// seed. Two passes run one after the other differed by up to a third
	// in their p50s on the shared host the benchmark was sized on, so the
	// run interleaves short passes of each kind and pools them: the
	// host's drift over the run falls on both alike.
	slice := cfg
	slice.seconds = 2 * cfg.seconds / time.Duration(len(tracedOrder))
	var refs, traced []*pass
	for _, tr := range tracedOrder {
		p, err := measure(slice, w, tr, 1)
		if err != nil {
			return result{}, err
		}
		if tr {
			traced = append(traced, p)
		} else {
			refs = append(refs, p)
		}
	}
	ref, p := mergePasses(refs), mergePasses(traced)
	refValues, values := endToEndValues(ref), endToEndValues(p)
	printEndToEnd(out, p, values)
	layers := layerValues(p)
	kernels, err := probeKernels(p.params)
	if err != nil {
		return result{}, fmt.Errorf("kernel probe: %w", err)
	}
	for k, v := range kernels {
		layers[k] = v
	}
	closures, problems := attribute(p, refValues)
	problems = append(append(append([]string(nil), ref.problems...), p.problems...), problems...)
	fp := newFingerprint(cfg, p)
	overhead := values["deposit_p50_ms"] - refValues["deposit_p50_ms"]
	fp.TracingOverheadMs = &overhead

	type layerRow struct {
		Name     string  `json:"name"`
		Value    float64 `json:"value"`
		Unit     string  `json:"unit"`
		Moves    string  `json:"moves"`
		LittleOn string  `json:"little_on,omitempty"`
	}
	rows := make([]layerRow, 0, len(layerMetrics))
	res := result{Correct: len(problems) == 0, Attempted: ref.attempted + p.attempted, Failed: ref.failed + p.failed, Metrics: map[string]metric{}}
	for _, m := range layerMetrics {
		v, ok := layers[m.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		rows = append(rows, layerRow{m.name, v, m.unit, m.moves, m.littleOn})
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if err := printJSON(out, map[string]any{"layers": rows}); err != nil {
		return result{}, err
	}
	if err := printJSON(out, map[string]any{"attribution": closures, "tolerance": attributionTolerance}); err != nil {
		return result{}, err
	}
	return res, finish(out, fp, problems, res)
}

// endToEndValues computes the end-to-end metrics of a pass.
func endToEndValues(p *pass) map[string]float64 {
	var lat, page []time.Duration
	var start []time.Time
	for _, s := range p.deposits {
		lat = append(lat, s.latency)
	}
	for _, s := range p.pages {
		page, start = append(page, s.latency), append(start, s.start)
	}
	acked := 0
	for _, s := range p.deposits {
		if s.err == nil {
			acked++
		}
	}
	return map[string]float64{
		"setup_s":                       medianDur(p.setups, time.Second),
		"deposit_p50_ms":                ms(quantile(lat, 0.50)),
		"deposit_rate":                  ratio(float64(acked), p.depElapsed.Seconds()),
		"pull_msgs_per_s":               ratio(float64(p.pulled), p.pullElapse.Seconds()),
		"pull_page_p50_ms":              ms(quantile(page, 0.50)),
		"pull_page_p95_ms":              ms(windowQuantile(start, page, 0.95)),
		"cpu_ms_per_op":                 ratio(ms(p.cpu), float64(p.ops)),
		"stored_bytes_per_payload_byte": p.storedRate,
		"max_rss_mb":                    float64(maxRSS()) / (1 << 20),
	}
}

// printEndToEnd writes the human-readable end-to-end rows with their
// sample counts.
func printEndToEnd(out io.Writer, p *pass, v map[string]float64) {
	measured := "deposits"
	if p.w.pull {
		measured = "pull"
	}
	fmt.Fprintf(out, "  measured phase: %s; all phases: %d ops, %d failed (fail_frac %.4f)\n", measured, p.attempted, p.failed, ratio(float64(p.failed), float64(p.attempted)))
	fmt.Fprintf(out, "  setup_s %.4f (median of %d set-ups); preload %.3f s, not part of setup_s\n", v["setup_s"], len(p.setups), p.preload.Seconds())
	fmt.Fprintf(out, "  deposits: n=%d p50 %.3f ms, %.1f/s\n", len(p.deposits), v["deposit_p50_ms"], v["deposit_rate"])
	fmt.Fprintf(out, "  pull: %d pages, %d msgs, page p50 %.3f ms, p95 %.3f ms (median of %d windows, %d beyond in each), %.1f msgs/s\n",
		len(p.pages), p.pulled, v["pull_page_p50_ms"], v["pull_page_p95_ms"], tailWindows, beyond(len(p.pages)/tailWindows, 0.95), v["pull_msgs_per_s"])
	fmt.Fprintf(out, "  cpu %.3f ms/op, stored %.3f B per payload byte, max rss %.1f MiB\n",
		v["cpu_ms_per_op"], v["stored_bytes_per_payload_byte"], v["max_rss_mb"])
}

// finish prints the fingerprint, any failed check and the result line.
func finish(out io.Writer, fp fingerprint, problems []string, res result) error {
	if err := printJSON(out, map[string]any{"fingerprint": fp}); err != nil {
		return err
	}
	sort.Strings(problems)
	for i, pr := range problems {
		if i == 20 {
			fmt.Fprintf(out, "check failed: ... and %d more\n", len(problems)-i)
			break
		}
		fmt.Fprintln(out, "check failed:", pr)
	}
	return printJSON(out, res)
}

func printJSON(out io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
