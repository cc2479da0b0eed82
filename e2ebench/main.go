// Command e2ebench is the repository's end-to-end benchmark. It runs
// one workload for a given number of seconds, checks every output,
// and prints as its last line a JSON object with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run). The
// metric catalogue and the reasoning behind each workload are in
// README.md; run.py builds and invokes this program.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"syscall"
	"time"

	"hstreams/internal/trace"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the gated end-to-end metrics, reported by every
// workload from its untraced run. One action is one request on
// serve-http; the unit of latency is a request, a figure run or a
// verified solve.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"actions_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_us_per_action", "us"},
	{"allocs_per_action", "count"},
	{"heap_live_mib", "MiB"},
}

// layerMetrics are the per-layer metrics of the traced run. Every
// workload prints all of them; a layer the workload does not run
// reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"http.hop_us", "us"},
		{"http.latency_p99_us", "us"},
		{"serve.admit_us", "us"},
		{"serve.admission_wait_us", "us"},
		{"serve.reply_us", "us"},
		{"serve.shed_frac", "ratio"},
		{"core.dep_wait_us", "us"},
		{"core.launch_wait_us", "us"},
		{"core.exec_overhead_us", "us"},
		{"core.deps_per_action", "count"},
		{"core.queue_depth_peak", "count"},
		{"core.domain_busy_frac.host", "ratio"},
		{"core.domain_busy_frac.knc0", "ratio"},
		{"core.domain_busy_frac.knc1", "ratio"},
		{"kernels.run_us", "us"},
		{"blas.busy_ms", "ms"},
		{"fabric.bytes_per_solve", "bytes"},
		{"fabric.transfers_per_solve", "count"},
		{"fabric.link_busy_ms", "ms"},
		{"coi.pool_hit_ratio", "ratio"},
		{"coi.runfunctions_per_solve", "count"},
		{"telemetry.sample_us", "us"},
		{"health.tick_us", "us"},
		{"trace.records_per_action", "count"},
		{"gc.cycles_per_kaction", "count"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_share", "ratio"})
	}
	for _, m := range e2eMetrics {
		defs = append(defs, metricDef{"traced." + m.name, m.unit})
	}
	return defs
}()

// workloads maps each workload name to its round function.
var workloads = map[string]func(o options, round int) (*roundResult, error){
	"serve-http": func(o options, round int) (*roundResult, error) {
		return serveRound(o.requests, o.seed, round, o.traced)
	},
	"sim-matmul": func(o options, _ int) (*roundResult, error) {
		return matmulRound(simShape, o.traced)
	},
	"real-matmul": func(o options, _ int) (*roundResult, error) {
		return matmulRound(realShape, o.traced)
	},
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// requests is the serve-http round size.
	requests int
	// commit and source identify the code under test in the log.
	commit, source string
}

// defaultRequests sizes a serve-http round at about one second on a
// two-core host, so a run sets up several times.
const defaultRequests = 16000

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: serve-http, sim-matmul or real-matmul")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the serve-http request mix and tile order")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to keep starting measured rounds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.commit, "commit", "unknown", "commit under test, for the log")
	flag.StringVar(&o.source, "source", "unknown", "hash of the sources under test, for the log")
	flag.Parse()
	o.traced = traceFlag == 1
	o.requests = defaultRequests
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// roundResult is one round of fixed work: set-up, the measured work,
// its checks, and what the layers counted.
type roundResult struct {
	setup, work       time.Duration
	attempted, failed int
	firstErr          error
	actions           int
	latencies         []float64 // ms per unit of work
	throughputs       []float64 // actions/s per window of work
	heapLive          float64   // MiB live at the end of the work, less what was live before the round
	// scale puts the round's times at the reference speed (see
	// refspeed.go): times are multiplied by it, rates divided.
	scale            float64
	recordsPerAction float64
	counts           map[string]float64

	cpu0, cpu1         time.Duration
	mallocs0, mallocs1 uint64
	numGC0, numGC1     uint32

	// Traced rounds only, reduced as soon as the round ends so the
	// run does not hold every span.
	prof       *bytes.Buffer      // CPU profile of the measured work
	layerNanos map[string]float64 // profiled CPU time per layer
	spanCount  int
	depSum     int          // dependence edges over all spans
	waits      [2][]float64 // µs per span: Ready−Enqueue, Launch−Ready
	serve      *serveTrace
}

func (r *roundResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// startCounters opens the measured work window: CPU time, allocation
// and GC counts, and in a traced round the CPU profile.
func (r *roundResult) startCounters(traced bool) error {
	if traced {
		r.prof = new(bytes.Buffer)
		if err := pprof.StartCPUProfile(r.prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs0, r.numGC0 = ms.Mallocs, ms.NumGC
	r.cpu0 = processCPU()
	return nil
}

// stopCounters closes the measured work window.
func (r *roundResult) stopCounters() error {
	r.cpu1 = processCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs1, r.numGC1 = ms.Mallocs, ms.NumGC
	if r.prof == nil {
		return nil
	}
	pprof.StopCPUProfile()
	var err error
	r.layerNanos, err = layerNanos(r.prof.Bytes())
	r.prof = nil
	return err
}

// reduceSpans keeps the span totals the per-layer metrics need; with
// waits it also keeps each span's dependence and launch waits.
func (r *roundResult) reduceSpans(spans []trace.Span, waits bool) {
	for i := range spans {
		sp := &spans[i]
		r.spanCount++
		r.depSum += len(sp.Deps)
		if waits {
			r.waits[0] = append(r.waits[0], us(sp.Ready-sp.Enqueue))
			r.waits[1] = append(r.waits[1], us(sp.Launch-sp.Ready))
		}
	}
}

func (r *roundResult) cpuPerAction() float64 {
	return us(r.cpu1-r.cpu0) / float64(r.actions)
}

func (r *roundResult) allocsPerAction() float64 {
	return float64(r.mallocs1-r.mallocs0) / float64(r.actions)
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLiveMiB collects garbage and returns the live heap in MiB.
func heapLiveMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// output is the last line the benchmark prints.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark invocation: a warm-up round, then
// measured rounds until o.seconds have passed (at least one), each
// checked. It logs the environment and every round, then prints the
// result line.
func run(o options, w io.Writer) error {
	roundFn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	env := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": o.commit, "source": o.source,
	}
	if o.workload == "serve-http" {
		env["clients"] = serveClients
		env["requests_per_round"] = o.requests
	} else {
		env["seed_note"] = "deterministic workload; the seed does not change its inputs"
	}
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(w, "env %s\n", envJSON)

	var attempted, failed int // over every round, warm-up included
	account := func(label string, r *roundResult) {
		attempted += r.attempted
		failed += r.failed
		fmt.Fprintf(w, "round %s: setup=%.3fms work=%.1fms sent=%d succeeded=%d failed=%d actions=%d\n",
			label, us(r.setup)/1000, us(r.work)/1000, r.attempted, r.attempted-r.failed, r.failed, r.actions)
		if r.firstErr != nil {
			fmt.Fprintf(w, "round %s: first failure: %v\n", label, r.firstErr)
		}
	}

	warm, err := roundFn(o, 0)
	if err != nil {
		return err
	}
	account("warm-up", warm)

	// Each measured round is bracketed by reference samples, so its
	// times can be put at the reference speed.
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var rounds []*roundResult
	var speeds []float64
	before := refSample()
	for i := 1; i == 1 || time.Now().Before(deadline); i++ {
		// Each round sets up on a collected heap, so its set-up time
		// does not absorb collecting the previous round's garbage, and
		// its live heap is counted from what is live before it starts:
		// the data the run keeps from earlier rounds is not the
		// program's.
		base := heapLiveMiB()
		r, err := roundFn(o, i)
		if err != nil {
			return err
		}
		r.heapLive -= base
		if !o.traced {
			// An untraced run keeps a round's medians only, so the
			// data the run holds between rounds stays small and does
			// not grow the heap later rounds and reference samples
			// collect. The traced run keeps every request for its
			// tail and stage metrics.
			r.latencies = []float64{median(r.latencies)}
			r.throughputs = []float64{median(r.throughputs)}
		}
		after := refSample()
		r.scale = roundScale(before, after)
		speeds = append(speeds, refSpeed(after))
		account(fmt.Sprint(i), r)
		fmt.Fprintf(w, "round %d: reference %.2fms scale=%.4f\n", i, us(after)/1000, r.scale)
		before = after
		rounds = append(rounds, r)
	}
	e2e := endToEnd(rounds, true)
	failFrac := float64(failed) / float64(attempted)
	fmt.Fprintf(w, "accounting: sent=%d succeeded=%d failed=%d\n", attempted, attempted-failed, failed)
	logNamed(w, o.workload, e2e, rounds, failFrac)
	logRaw(w, endToEnd(rounds, false), speeds)

	metrics := make(map[string]metricValue)
	if o.traced {
		layer, err := perLayer(o.workload, rounds, w)
		if err != nil {
			return err
		}
		for _, m := range e2eMetrics {
			layer["traced."+m.name] = e2e[m.name]
		}
		for _, m := range layerMetrics {
			metrics[m.name] = metricValue{layer[m.name], m.unit}
		}
	} else {
		for _, m := range e2eMetrics {
			metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	}
	for _, name := range sortedKeys(metrics) {
		fmt.Fprintf(w, "metric %s = %.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	line, err := json.Marshal(output{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// endToEnd reduces the measured rounds to the end-to-end metrics:
// per-round values, then their median. Latency and throughput are
// medians over every unit of work and every throughput window the
// rounds kept: in an untraced run, one median of each per round. With
// scaled set, the times and rates are put at the reference speed,
// round by round; without it they are as measured.
func endToEnd(rounds []*roundResult, scaled bool) map[string]float64 {
	var setup, tput, cpu, allocs, heap, lat []float64
	for _, r := range rounds {
		k := 1.0
		if scaled {
			k = r.scale
		}
		setup = append(setup, r.setup.Seconds()*k)
		for _, v := range r.throughputs {
			tput = append(tput, v/k)
		}
		cpu = append(cpu, r.cpuPerAction()*k)
		allocs = append(allocs, r.allocsPerAction())
		heap = append(heap, r.heapLive)
		for _, v := range r.latencies {
			lat = append(lat, v*k)
		}
	}
	return map[string]float64{
		"setup_s":           median(setup),
		"actions_per_s":     median(tput),
		"latency_p50_ms":    median(lat),
		"cpu_us_per_action": median(cpu),
		"allocs_per_action": median(allocs),
		"heap_live_mib":     median(heap),
	}
}

// logRaw prints the time metrics as measured, before they are put at
// the reference speed, and the median reference speed of the run.
func logRaw(w io.Writer, raw map[string]float64, speeds []float64) {
	fmt.Fprintf(w, "reference speed: median %.4f over %d samples\n", median(speeds), len(speeds))
	for _, name := range []string{"setup_s", "actions_per_s", "latency_p50_ms", "cpu_us_per_action"} {
		fmt.Fprintf(w, "raw %s = %.6g (as measured)\n", name, raw[name])
	}
}

// logNamed prints the end-to-end metrics under the names the
// workload's own vocabulary uses (req_per_s, sim_run_ms, solve_ms,
// fail_frac), one per line with its unit, and the spread of the
// rounds' work times.
func logNamed(w io.Writer, workload string, e2e map[string]float64, rounds []*roundResult, failFrac float64) {
	var work []float64
	for _, r := range rounds {
		work = append(work, us(r.work)/1000)
	}
	q1, q2, q3 := quartiles(work)
	fmt.Fprintf(w, "rounds: %d measured, work q1/median/q3 = %.1f/%.1f/%.1f ms\n", len(rounds), q1, q2, q3)
	named := func(name string, v float64, unit string) {
		fmt.Fprintf(w, "named %s = %.6g %s\n", name, v, unit)
	}
	named("setup_s", e2e["setup_s"], "s")
	named("fail_frac", failFrac, "ratio")
	switch workload {
	case "serve-http":
		named("req_per_s", e2e["actions_per_s"], "1/s")
		named("latency_p50_us", e2e["latency_p50_ms"]*1000, "us")
	case "sim-matmul":
		named("sim_run_ms", e2e["latency_p50_ms"], "ms")
	case "real-matmul":
		named("solve_ms", e2e["latency_p50_ms"], "ms")
	}
	named("cpu_us_per_action", e2e["cpu_us_per_action"], "us")
	named("allocs_per_action", e2e["allocs_per_action"], "count")
	named("heap_live_mib", e2e["heap_live_mib"], "MiB")
}

// perLayer reduces the traced rounds to the per-layer metrics.
func perLayer(workload string, rounds []*roundResult, w io.Writer) (map[string]float64, error) {
	m := make(map[string]float64)
	var actions, numGC, spans, deps, cpu float64
	var records, depthPeak []float64
	byLayer := make(map[string]float64)
	for _, r := range rounds {
		actions += float64(r.actions)
		numGC += float64(r.numGC1 - r.numGC0)
		spans += float64(r.spanCount)
		deps += float64(r.depSum)
		records = append(records, r.recordsPerAction)
		depthPeak = append(depthPeak, r.counts["queue_depth_peak"])
		for l, v := range r.layerNanos {
			byLayer[l] += v
			cpu += v
		}
	}
	for _, l := range layers {
		if cpu > 0 {
			m[l+".cpu_share"] = byLayer[l] / cpu
		}
	}
	m["trace.records_per_action"] = median(records)
	m["gc.cycles_per_kaction"] = numGC * 1000 / actions
	m["core.queue_depth_peak"] = slices.Max(depthPeak)
	if spans > 0 {
		m["core.deps_per_action"] = deps / spans
	}

	switch workload {
	case "serve-http":
		if err := serveLayers(m, rounds, w); err != nil {
			return nil, err
		}
	case "real-matmul":
		realLayers(m, rounds)
	}
	return m, nil
}

// serveLayers joins the traced serve-http requests to their action
// spans and reduces the stages.
func serveLayers(m map[string]float64, rounds []*roundResult, w io.Writer) error {
	var all []reqStages
	var lat, samples, ticks, busy []float64
	var waitSum, waitCount, shed, requests float64
	for _, r := range rounds {
		all = append(all, r.serve.stages...)
		lat = append(lat, r.latencies...)
		samples = append(samples, r.serve.sampleDurs...)
		ticks = append(ticks, r.serve.tickDurs...)
		waitSum += r.counts["admission_wait_sum"]
		waitCount += r.counts["admission_wait_count"]
		shed += r.counts["shed"]
		requests += float64(r.attempted)
		busy = append(busy, r.counts["busy.host"])
	}
	if len(all) == 0 {
		return errors.New("serve-http: no traced requests")
	}
	stage := func(i int) float64 {
		xs := make([]float64, len(all))
		for j, s := range all {
			xs[j] = s.st[i]
		}
		return median(xs)
	}
	hops := make([]float64, len(all))
	for j, s := range all {
		hops[j] = s.hop
	}
	m["http.hop_us"] = median(hops)
	m["http.latency_p99_us"] = percentile(lat, 99) * 1000
	m["serve.admit_us"] = stage(stAdmit)
	m["serve.reply_us"] = stage(stReply)
	m["core.dep_wait_us"] = stage(stDepWait)
	m["core.launch_wait_us"] = stage(stLaunchWait)
	m["core.exec_overhead_us"] = stage(stExecOverhead)
	m["kernels.run_us"] = stage(stKernel)
	m["core.domain_busy_frac.host"] = median(busy)
	if waitCount > 0 {
		m["serve.admission_wait_us"] = waitSum / waitCount * 1e6
	}
	m["serve.shed_frac"] = shed / requests
	m["telemetry.sample_us"] = median(samples)
	m["health.tick_us"] = median(ticks)
	fmt.Fprintln(w, formatStageMeans(all))
	return nil
}

// realLayers reduces the real-matmul rounds' spans and counters.
func realLayers(m map[string]float64, rounds []*roundResult) {
	var depWait, launchWait []float64
	perSolve := map[string][]float64{}
	for _, r := range rounds {
		depWait = append(depWait, r.waits[0]...)
		launchWait = append(launchWait, r.waits[1]...)
		for k, v := range r.counts {
			perSolve[k] = append(perSolve[k], v)
		}
	}
	med := func(k string) float64 { return median(perSolve[k]) }
	m["core.dep_wait_us"] = median(depWait)
	m["core.launch_wait_us"] = median(launchWait)
	m["core.domain_busy_frac.host"] = med("busy.host")
	m["core.domain_busy_frac.knc0"] = med("busy.knc0")
	m["core.domain_busy_frac.knc1"] = med("busy.knc1")
	m["blas.busy_ms"] = med("compute_s") * 1000
	m["fabric.bytes_per_solve"] = med("link_bytes")
	m["fabric.transfers_per_solve"] = med("link_transfers")
	m["fabric.link_busy_ms"] = med("link_busy_s") * 1000
	if hits, misses := med("pool_hits"), med("pool_misses"); hits+misses > 0 {
		m["coi.pool_hit_ratio"] = hits / (hits + misses)
	}
	m["coi.runfunctions_per_solve"] = med("runfunctions")
}

func sortedKeys(m map[string]metricValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
