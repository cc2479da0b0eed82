package main

import (
	"testing"
	"time"
)

// TestReferenceSpeed checks a sample's speed against the nominal time,
// and the round scale as the geometric mean of the samples on either
// side of a round.
func TestReferenceSpeed(t *testing.T) {
	if got := refSpeed(refNominal); !near(got, 1) {
		t.Errorf("nominal speed = %v, want 1", got)
	}
	if got := refSpeed(2 * refNominal); !near(got, 0.5) {
		t.Errorf("half-speed sample = %v, want 0.5", got)
	}
	if got := roundScale(refNominal/2, 2*refNominal); !near(got, 1) {
		t.Errorf("roundScale(2, 0.5) = %v, want 1", got)
	}
	if got := roundScale(refNominal, 2*refNominal); !near(got, 0.7071067811865476) {
		t.Errorf("roundScale(1, 0.5) = %v, want sqrt(0.5)", got)
	}
	if d := refSample(); d <= 0 {
		t.Errorf("refSample() = %v, want > 0", d)
	}
}

// TestScaledEndToEnd checks that times are multiplied by a round's
// scale and rates divided by it, while counts and memory are left as
// measured.
func TestScaledEndToEnd(t *testing.T) {
	r := &roundResult{
		setup:       4 * time.Millisecond,
		actions:     100,
		latencies:   []float64{10},
		throughputs: []float64{1000},
		heapLive:    3,
		scale:       0.5,
		cpu1:        time.Millisecond,
		mallocs1:    700,
	}
	raw := endToEnd([]*roundResult{r}, false)
	scaled := endToEnd([]*roundResult{r}, true)
	for name, want := range map[string][2]float64{
		"setup_s":           {0.004, 0.002},
		"latency_p50_ms":    {10, 5},
		"actions_per_s":     {1000, 2000},
		"cpu_us_per_action": {10, 5},
		"allocs_per_action": {7, 7},
		"heap_live_mib":     {3, 3},
	} {
		if !near(raw[name], want[0]) || !near(scaled[name], want[1]) {
			t.Errorf("%s: raw %v scaled %v, want %v", name, raw[name], scaled[name], want)
		}
	}
}
