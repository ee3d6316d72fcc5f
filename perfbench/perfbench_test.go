package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smoke runs one workload for a second on the test preset and returns
// the parsed result line and the whole output.
func smoke(t *testing.T, workload string, trace bool, fault string) (result, string) {
	t.Helper()
	cfg := config{
		workload: workload,
		seed:     7,
		seconds:  time.Second,
		trace:    trace,
		preset:   "test",
		setups:   1,
		root:     "..",
		scratch:  t.TempDir(),
		fault:    fault,
	}
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if last.Correct != res.Correct || len(last.Metrics) != len(res.Metrics) {
		t.Fatalf("%s: printed result %+v differs from returned %+v", workload, last, res)
	}
	return last, out.String()
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, out := smoke(t, w.name, false, "")
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run not clean: %+v\n%s", res, out)
			}
			if len(res.Metrics) != len(endToEndMetrics) {
				t.Errorf("got %d end-to-end metrics, want %d", len(res.Metrics), len(endToEndMetrics))
			}
			for _, m := range endToEndMetrics {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}

			// A one-second traced run on the test preset pools passes of
			// a quarter second, too few requests for the attribution
			// closure to hold within its tolerance. Every other check
			// must pass; TestAttributionFailsOnAMissingStage covers the
			// closure.
			res, out = smoke(t, w.name, true, "")
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "check failed: ") && !strings.HasPrefix(line, "check failed: attribution does not close: ") {
					t.Fatalf("traced run failed a check:\n%s", out)
				}
			}
			if res.Failed != 0 {
				t.Fatalf("traced run had failed operations:\n%s", out)
			}
			if len(res.Metrics) != len(layerMetrics) {
				t.Errorf("got %d per-layer metrics, want %d", len(res.Metrics), len(layerMetrics))
			}
			for _, m := range layerMetrics {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("per-layer metric %s = %+v, want unit %s", m.name, got, m.unit)
				}
			}
			for _, want := range []string{`{"layers":`, `{"attribution":`, `"tracing_overhead_ms":`} {
				if !strings.Contains(out, want) {
					t.Errorf("traced output lacks %s", want)
				}
			}
		})
	}
}

func TestChecksCatchFaults(t *testing.T) {
	for _, tc := range []struct{ fault, workload, want string }{
		{faultFlipPayload, "deposit-fresh", "payload differs"},
		{faultFlipPayload, "utility-pull", "payload differs"},
		{faultPlantMarker, "deposit-bulk", "plaintext payload marker found"},
	} {
		t.Run(tc.fault+"/"+tc.workload, func(t *testing.T) {
			res, out := smoke(t, tc.workload, false, tc.fault)
			if res.Correct {
				t.Fatalf("run passed despite the %s fault:\n%s", tc.fault, out)
			}
			if !strings.Contains(out, "check failed: ") || !strings.Contains(out, tc.want) {
				t.Fatalf("output does not report %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestAttributionFailsOnAMissingStage checks that the closure is not
// true by construction: it fails when a stage of the blocking path is
// left out, or when tracing inflates the stages.
func TestAttributionFailsOnAMissingStage(t *testing.T) {
	ms := func(vs ...float64) []time.Duration {
		var ds []time.Duration
		for _, v := range vs {
			ds = append(ds, time.Duration(v*float64(time.Millisecond)))
		}
		return ds
	}
	queue, prepare, rtt := ms(0.2, 0.6, 0.9), ms(4.3, 4.4, 4.6), ms(0.7, 0.8, 0.8)
	const untracedP50 = 5.9 // 0.6 + 4.4 + 0.8 = 5.8
	if c := newClosure("all stages", [][]time.Duration{queue, prepare, rtt}, untracedP50); !c.Closes {
		t.Fatalf("complete path does not close: %+v", c)
	}
	if c := newClosure("no prepare", [][]time.Duration{queue, rtt}, untracedP50); c.Closes {
		t.Fatalf("path without device.prepare closes: %+v", c)
	}
	if c := newClosure("inflated", [][]time.Duration{queue, ms(6.8, 6.9, 7.1), rtt}, untracedP50); c.Closes {
		t.Fatalf("path inflated by tracing closes: %+v", c)
	}
	if c := newClosure("no reference", [][]time.Duration{queue, prepare, rtt}, 0); c.Closes {
		t.Fatalf("path without an untraced p50 closes: %+v", c)
	}
}

func TestScanPlaintextFindsMarkerAcrossReads(t *testing.T) {
	dir := t.TempDir()
	clean := bytes.Repeat([]byte{0xAB}, 3<<20)
	if err := os.WriteFile(filepath.Join(dir, "clean"), clean, 0o644); err != nil {
		t.Fatal(err)
	}
	if hits, err := scanPlaintext(dir); err != nil || len(hits) != 0 {
		t.Fatalf("clean directory: hits %v, err %v", hits, err)
	}
	// Straddle the scanner's 1 MiB read boundary.
	split := append([]byte(nil), clean...)
	copy(split[1<<20-5:], markerPrefix)
	if err := os.WriteFile(filepath.Join(dir, "split"), split, 0o644); err != nil {
		t.Fatal(err)
	}
	hits, err := scanPlaintext(dir)
	if err != nil || len(hits) != 1 || filepath.Base(hits[0]) != "split" {
		t.Fatalf("hits %v, err %v; want the split file", hits, err)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	pairs := func(n int, at func(int) (string, string)) string {
		var s []string
		for i := 0; i < n; i++ {
			name, unit := at(i)
			s = append(s, name+" "+unit)
		}
		return strings.Join(s, ", ")
	}
	if got, code := pairs(len(spec.EndToEnd), func(i int) (string, string) { return spec.EndToEnd[i].Name, spec.EndToEnd[i].Unit }),
		pairs(len(endToEndMetrics), func(i int) (string, string) { return endToEndMetrics[i].name, endToEndMetrics[i].unit }); got != code {
		t.Errorf("end_to_end in BENCHMARK.json:\n%s\nin code:\n%s", got, code)
	}
	if got, code := pairs(len(spec.PerLayer), func(i int) (string, string) { return spec.PerLayer[i].Name, spec.PerLayer[i].Unit }),
		pairs(len(layerMetrics), func(i int) (string, string) { return layerMetrics[i].name, layerMetrics[i].unit }); got != code {
		t.Errorf("per_layer in BENCHMARK.json:\n%s\nin code:\n%s", got, code)
	}
}
