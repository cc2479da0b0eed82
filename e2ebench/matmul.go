package main

import (
	"fmt"
	"time"

	"hstreams/internal/app"
	"hstreams/internal/core"
	"hstreams/internal/matmul"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// sim-matmul is the paper's Fig. 6 hetero tiled DGEMM on the virtual
// clock. Its action graph and modeled rate are fixed by the
// configuration, so both are pinned: a change to either is a change to
// dependence semantics or to the Sim cost model, not noise.
const (
	simN            = 19200
	simTile         = 600
	simActions      = 36544
	simGFlopsPinned = 2976.811
)

// real-matmul runs the same DAG generator on real data with
// verification.
const (
	realN    = 512
	realTile = 32
)

// matmulShape is one matmul workload's machine and stream layout.
type matmulShape struct {
	mode        core.Mode
	hostStreams int
	perCard     int
	n, tile     int
	verify      bool
}

var (
	simShape  = matmulShape{mode: core.ModeSim, hostStreams: 4, perCard: 4, n: simN, tile: simTile}
	realShape = matmulShape{mode: core.ModeReal, hostStreams: 1, perCard: 2, n: realN, tile: realTile, verify: true}
)

// matmulRound runs one fresh app through one matmul.Run and checks it.
func matmulRound(sh matmulShape, traced bool) (*roundResult, error) {
	res := &roundResult{attempted: 1}
	setupStart := time.Now()
	reg := metrics.New()
	a, err := app.Init(app.Options{
		Machine:        platform.HSWPlusKNC(2),
		Mode:           sh.mode,
		StreamsPerCard: sh.perCard,
		HostStreams:    sh.hostStreams,
		Metrics:        reg,
		Flight:         trace.NewFlight(0),
	})
	if err != nil {
		return nil, fmt.Errorf("matmul: init: %w", err)
	}
	defer a.Fini()
	if sh.mode == core.ModeReal {
		matmul.RegisterExtra(a.RT)
	}
	res.setup = time.Since(setupStart)

	if err := res.startCounters(traced); err != nil {
		return nil, err
	}
	workStart := time.Now()
	r, runErr := matmul.Run(a, matmul.Config{N: sh.n, Tile: sh.tile, UseHost: true, LoadBalance: true, Verify: sh.verify})
	res.work = time.Since(workStart)
	if err := res.stopCounters(); err != nil {
		return nil, err
	}
	res.latencies = []float64{float64(res.work) / float64(time.Millisecond)}

	res.actions = int(reg.Total("hstreams_actions_total"))
	if res.actions == 0 { // a run that failed before any action finished
		res.actions = 1
	}
	res.throughputs = []float64{float64(res.actions) / res.work.Seconds()}
	switch {
	case runErr != nil:
		res.fail(fmt.Errorf("matmul: %w", runErr))
	case sh.mode == core.ModeSim && res.actions != simActions:
		res.fail(fmt.Errorf("sim-matmul: %d actions, want %d", res.actions, simActions))
	case sh.mode == core.ModeSim && fmt.Sprintf("%.3f", r.GFlops) != fmt.Sprintf("%.3f", simGFlopsPinned):
		res.fail(fmt.Errorf("sim-matmul: modeled %.3f GF/s, want %.3f", r.GFlops, simGFlopsPinned))
	}
	res.recordsPerAction = float64(a.RT.Trace().Len()) / float64(res.actions)
	res.heapLive = heapLiveMiB()
	res.counts = map[string]float64{
		"queue_depth_peak": maxSample(reg, "hstreams_queue_depth_peak"),
	}
	if sh.mode == core.ModeReal {
		for _, d := range a.RT.Domains() {
			key := "busy.host"
			if !d.IsHost() {
				key = fmt.Sprintf("busy.knc%d", d.Index()-1)
			}
			res.counts[key] = busyFrac(reg, d, len(a.StreamsOf(d)), res.work)
		}
		res.counts["compute_s"] = reg.Sum("hstreams_action_duration_seconds_sum", map[string]string{"kind": "compute"})
		res.counts["link_bytes"] = reg.Total("hstreams_link_bytes_total")
		res.counts["link_transfers"] = reg.Total("hstreams_link_transfers_total")
		res.counts["link_busy_s"] = reg.Total("hstreams_link_occupancy_seconds_sum")
		res.counts["pool_hits"] = reg.Total("hstreams_coi_pool_hits_total")
		res.counts["pool_misses"] = reg.Total("hstreams_coi_pool_misses_total")
		res.counts["runfunctions"] = reg.Total("hstreams_coi_runfunctions_total")
	}
	if traced {
		// Sim-mode waits are virtual time, not a cost of the core.
		res.reduceSpans(a.RT.Flight().Snapshot(), sh.mode == core.ModeReal)
	}
	return res, nil
}

// busyFrac is the share of the domain's stream capacity that actions
// kept busy over the work: hstreams_action_duration_seconds_sum on the
// domain ÷ (streams × wall).
func busyFrac(reg *metrics.Registry, d *core.Domain, streams int, wall time.Duration) float64 {
	busy := reg.Sum("hstreams_action_duration_seconds_sum", map[string]string{"domain": d.Spec().Name})
	return busy / (float64(streams) * wall.Seconds())
}
