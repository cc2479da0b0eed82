package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json that
// names the metrics this program must print.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeEveryWorkloadPrintsEveryMetric runs each workload at its
// smallest size, untraced and traced, and checks that the last line
// reports a correct run with exactly the metrics BENCHMARK.json names,
// each with its unit.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			var out bytes.Buffer
			o := options{workload: wl.Name, seed: 3, traced: traced, requests: 2000}
			if err := run(o, &out); err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", wl.Name, traced, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res output
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", wl.Name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", wl.Name, traced, name, got, unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, name, got.Value)
				}
			}
		}
	}
}
