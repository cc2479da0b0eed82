package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"hstreams/internal/core"
	"hstreams/internal/health"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/serve"
	"hstreams/internal/telemetry"
	"hstreams/internal/trace"
)

// serve-http shape. Two clients match the two cores the benchmark is
// sized for; each owns half the tiles, so a client's fills and sums
// never race the other client's.
const (
	serveClients  = 2
	serveTiles    = 64
	serveTileSize = 4096
	serveTenant   = "bench"
	// sampleEvery is the telemetry/health cadence cmd/hsserve uses.
	sampleEvery = 100 * time.Millisecond
	// rateWindow is how many consecutive completions one throughput
	// sample spans. The run reports the median sample, so a burst of
	// interference from outside the process moves it less than it
	// moves a whole-round average.
	rateWindow = 1000
	// seqHeader carries the request's sequence number to the traced
	// handler wrapper.
	seqHeader = "X-Bench-Seq"
)

// serveTrace is what one traced serve-http round records beside the
// untraced measurements.
type serveTrace struct {
	reqs       []reqTrace
	stages     []reqStages
	clock      clockMap
	sampleDurs []float64 // µs per SampleOnce
	tickDurs   []float64 // µs per Engine.Tick
}

// serveRound runs one serve-http round: bring up the runtime, health
// engine, sampler, server and tenant as cmd/hsserve does, send
// requests from the closed-loop clients, check every reply, and shut
// everything down with the leaked-buffer check.
func serveRound(requests int, seed uint64, round int, traced bool) (*roundResult, error) {
	res := &roundResult{}
	var tr *serveTrace
	if traced {
		tr = &serveTrace{reqs: make([]reqTrace, requests)}
	}

	setupStart := time.Now()
	reg := metrics.New()
	store := telemetry.NewStore(0, 0)
	engine := health.New(health.Options{Store: store, Registry: reg, Journal: health.NewJournal(0, reg)})
	core.SetDefaultEventHook(engine.Journal().CoreEvent)
	sopt := telemetry.SamplerOptions{Registry: reg, Store: store, Interval: sampleEvery, OnSample: engine.Tick}
	if traced {
		sopt.OnSample = nil // the traced ticker times SampleOnce and Tick apart
	}
	sampler := telemetry.NewSampler(sopt)
	stopSampling := startSampling(sampler, engine, tr)

	rt, err := core.Init(core.Config{
		Machine: platform.HSWPlusKNC(0),
		Mode:    core.ModeReal,
		Metrics: reg,
		Flight:  trace.NewFlight(0),
	})
	if err != nil {
		stopSampling()
		return nil, fmt.Errorf("serve-http: init: %w", err)
	}
	if traced {
		tr.clock = readClock(rt.Now)
	}
	registerServeKernels(rt, tr)
	srv, err := serve.New(serve.Options{Runtime: rt, Registry: reg})
	if err != nil {
		stopSampling()
		rt.Fini()
		return nil, fmt.Errorf("serve-http: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stopSampling()
		_ = srv.Close()
		rt.Fini()
		return nil, fmt.Errorf("serve-http: listen: %w", err)
	}
	var handler http.Handler = srv.Handler()
	if traced {
		handler = traceHandler(handler, tr)
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()
	shutdown := func() error {
		_ = hs.Close()
		<-served
		err := srv.Close()
		stopSampling()
		rt.Fini()
		return err
	}

	clients := make([]*http.Client, serveClients)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()
	results, err := setupTenant(clients[0], base, rt)
	if err != nil {
		_ = shutdown()
		return nil, err
	}
	res.setup = time.Since(setupStart)

	// The measured work: the closed loop.
	if err := res.startCounters(traced); err != nil {
		_ = shutdown()
		return nil, err
	}
	workStart := time.Now()
	var wg sync.WaitGroup
	outs := make([]clientOutcome, serveClients)
	per := requests / serveClients
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c] = runClient(clients[c], base, c, per, rand.New(rand.NewPCG(seed, uint64(round)<<8|uint64(c))), results, tr)
		}(c)
	}
	wg.Wait()
	res.work = time.Since(workStart)
	profErr := res.stopCounters()

	// The live heap is the program's: the clients' measurements and,
	// in a traced round, the request records are the harness's, so
	// their size is taken off.
	res.heapLive = heapLiveMiB() - float64(measurementBytes(outs, tr))/(1<<20)
	var ends []time.Time
	for _, o := range outs {
		res.attempted += o.sent
		res.failed += o.failed
		res.latencies = append(res.latencies, o.latencies...)
		ends = append(ends, o.ends...)
		if o.firstErr != nil && res.firstErr == nil {
			res.firstErr = o.firstErr
		}
	}
	res.throughputs = windowRates(ends, rateWindow)
	res.actions = res.attempted
	res.recordsPerAction = float64(rt.Trace().Len()) / float64(res.actions)
	res.counts = map[string]float64{
		"admission_wait_sum":   reg.Total("hstreams_tenant_admission_wait_seconds_sum"),
		"admission_wait_count": reg.Total("hstreams_tenant_admission_wait_seconds_count"),
		"shed":                 reg.Total("hstreams_tenant_shed_total"),
		"queue_depth_peak":     maxSample(reg, "hstreams_queue_depth_peak"),
	}
	if ts := srv.Tenants(); len(ts) == 1 {
		res.counts["busy.host"] = busyFrac(reg, rt.Domains()[0], len(ts[0].Streams), res.work)
	}
	if traced {
		spans := rt.Flight().Snapshot()
		res.reduceSpans(spans, false)
		var unmatched, disordered int
		tr.stages, unmatched, disordered = joinRequests(tr.reqs, spans, tr.clock)
		tr.reqs = nil
		if unmatched > 0 || disordered > 0 {
			res.fail(fmt.Errorf("serve-http: %d requests without an action span, %d with stages out of order", unmatched, disordered))
		}
		res.serve = tr
	}

	if err := shutdown(); err != nil {
		return nil, fmt.Errorf("serve-http: close: %w", err)
	}
	if profErr != nil {
		return nil, profErr
	}
	if leaked := reg.Total("hstreams_buffers_live"); leaked != 0 {
		res.fail(fmt.Errorf("serve-http: %v buffers leaked after shutdown", leaked))
	}
	return res, nil
}

// startSampling starts the telemetry sampler on the cmd/hsserve
// cadence. Traced rounds drive SampleOnce and Engine.Tick from their
// own ticker instead, timing each call. The returned function stops
// sampling and waits for the sampling goroutine.
func startSampling(s *telemetry.Sampler, e *health.Engine, tr *serveTrace) func() {
	if tr == nil {
		s.Start()
		return s.Stop
	}
	stop, done := make(chan struct{}), make(chan struct{})
	tick := func(now time.Time) {
		t0 := time.Now()
		s.SampleOnce(now)
		t1 := time.Now()
		e.Tick(now)
		tr.sampleDurs = append(tr.sampleDurs, us(t1.Sub(t0)))
		tr.tickDurs = append(tr.tickDurs, us(time.Since(t1)))
	}
	go func() {
		defer close(done)
		tick(time.Now())
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				tick(now)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stop)
			<-done
			tick(time.Now())
		})
	}
}

// traceHandler wraps the server's handler with a span per request,
// keyed by the sequence number the client sent in seqHeader.
func traceHandler(h http.Handler, tr *serveTrace) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if seq, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil && seq >= 0 && seq < len(tr.reqs) {
			tr.reqs[seq].handle = interval{start, end}
		}
	})
}

// registerServeKernels installs the spin/fill/sum kernels cmd/hsserve
// serves, with the same bodies. The benchmark appends a request
// sequence number as the last argument (neither body reads it); a
// traced round uses it to tie the kernel's span to its request.
func registerServeKernels(rt *core.Runtime, tr *serveTrace) {
	wrap := func(body func(ctx *core.KernelCtx)) core.Kernel {
		if tr == nil {
			return body
		}
		return func(ctx *core.KernelCtx) {
			start := time.Now()
			body(ctx)
			end := time.Now()
			if n := len(ctx.Args); n > 0 && ctx.Args[n-1] >= 0 && ctx.Args[n-1] < int64(len(tr.reqs)) {
				tr.reqs[ctx.Args[n-1]].kernel = interval{start, end}
			}
		}
	}
	rt.RegisterKernel("spin", wrap(kernelSpin))
	rt.RegisterKernel("fill", wrap(kernelFill))
	rt.RegisterKernel("sum", wrap(kernelSum))
}

func kernelSpin(ctx *core.KernelCtx) {
	d := time.Duration(0)
	if len(ctx.Args) > 0 {
		d = time.Duration(ctx.Args[0])
	}
	time.Sleep(d)
}

func kernelFill(ctx *core.KernelCtx) {
	v := byte(0)
	if len(ctx.Args) > 0 {
		v = byte(ctx.Args[0])
	}
	if len(ctx.Ops) > 0 {
		buf := ctx.Ops[0]
		for i := range buf {
			buf[i] = v
		}
	}
}

func kernelSum(ctx *core.KernelCtx) {
	if len(ctx.Ops) < 2 || len(ctx.Ops[1]) < 8 {
		return
	}
	var total uint64
	for _, b := range ctx.Ops[0] {
		total += uint64(b)
	}
	binary.LittleEndian.PutUint64(ctx.Ops[1], total)
}

// setupTenant registers the tenant and allocates its tile buffer and
// result slots over the API. It resolves the result slots in the
// runtime so replies to sums can be checked against memory.
func setupTenant(c *http.Client, base string, rt *core.Runtime) (*core.Buf, error) {
	if err := postJSON(c, base+"/v1/tenants", map[string]any{"name": serveTenant, "weight": 1}, nil); err != nil {
		return nil, err
	}
	bufURL := base + "/v1/tenants/" + serveTenant + "/buffers"
	if err := postJSON(c, bufURL, map[string]any{"name": "tiles", "size": serveTiles * serveTileSize}, nil); err != nil {
		return nil, err
	}
	var resp struct {
		ProxyBase uint64 `json:"proxy_base"`
	}
	size := int64(8 * serveClients)
	if err := postJSON(c, bufURL, map[string]any{"name": "results", "size": size}, &resp); err != nil {
		return nil, err
	}
	b, off, err := rt.Resolve(resp.ProxyBase, size)
	if err != nil || off != 0 {
		return nil, fmt.Errorf("serve-http: resolve result slots: off %d: %v", off, err)
	}
	return b, nil
}

// postJSON posts v and decodes a 2xx reply into out (if non-nil).
func postJSON(c *http.Client, url string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("serve-http: POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("serve-http: POST %s: %w", url, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("serve-http: POST %s: %s: %s", url, resp.Status, raw)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// clientOutcome is one client's account of a round.
type clientOutcome struct {
	sent, failed int
	latencies    []float64   // ms per request
	ends         []time.Time // completion time per request
	firstErr     error
}

// submitReply is the part of a submit reply the client checks.
type submitReply struct {
	Status string `json:"status"`
	Action uint64 `json:"action"`
	Error  string `json:"error"`
}

// runClient is one closed-loop client: it sends n requests one after
// another, each a fill (write one of its tiles with a fresh value) or
// a sum (read one of its tiles into its result slot) with equal odds,
// and checks every reply. A sum must read 4096 × the value the client
// last wrote to that tile.
func runClient(c *http.Client, base string, id, n int, rng *rand.Rand, results *core.Buf, tr *serveTrace) clientOutcome {
	out := clientOutcome{latencies: make([]float64, 0, n), ends: make([]time.Time, 0, n)}
	url := base + "/v1/tenants/" + serveTenant + "/submit"
	owned := serveTiles / serveClients
	last := make([]int64, owned) // value last written per owned tile; buffers start zeroed
	slot := results.HostBytes()[8*id : 8*id+8]
	fail := func(err error) {
		out.failed++
		if out.firstErr == nil {
			out.firstErr = err
		}
	}
	var body []byte
	for i := 0; i < n; i++ {
		seq := id*n + i
		k := rng.IntN(owned)
		off := int64(id*owned+k) * serveTileSize
		fill := rng.IntN(2) == 0
		v := int64(1 + rng.IntN(255))
		if fill {
			body = fmt.Appendf(body[:0], `{"kernel":"fill","wait":true,"args":[%d,%d],"buffers":[{"name":"tiles","access":"out","off":%d,"len":%d}]}`,
				v, seq, off, serveTileSize)
		} else {
			body = fmt.Appendf(body[:0], `{"kernel":"sum","wait":true,"args":[%d],"buffers":[{"name":"tiles","access":"in","off":%d,"len":%d},{"name":"results","access":"out","off":%d,"len":8}]}`,
				seq, off, serveTileSize, 8*id)
		}

		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			fail(err)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		if tr != nil {
			req.Header.Set(seqHeader, strconv.Itoa(seq))
		}
		out.sent++
		start := time.Now()
		resp, err := c.Do(req)
		var raw []byte
		if err == nil {
			raw, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		end := time.Now()
		out.latencies = append(out.latencies, float64(end.Sub(start))/float64(time.Millisecond))
		out.ends = append(out.ends, end)
		if err != nil {
			fail(fmt.Errorf("serve-http: request %d: %w", seq, err))
			continue
		}
		var rep submitReply
		if resp.StatusCode != http.StatusOK {
			fail(fmt.Errorf("serve-http: request %d: %s: %s", seq, resp.Status, raw))
			continue
		}
		if err := json.Unmarshal(raw, &rep); err != nil || rep.Status != "done" || rep.Error != "" || rep.Action == 0 {
			fail(fmt.Errorf("serve-http: request %d: bad reply %q (%v)", seq, raw, err))
			continue
		}
		if tr != nil {
			tr.reqs[seq].action = rep.Action
			tr.reqs[seq].client = interval{start, end}
		}
		if fill {
			last[k] = v
		} else if got, want := binary.LittleEndian.Uint64(slot), uint64(serveTileSize*last[k]); got != want {
			fail(fmt.Errorf("serve-http: request %d: sum of tile %d = %d, want %d", seq, id*owned+k, got, want))
		}
	}
	return out
}

// measurementBytes is the size of what the harness holds of a round's
// measurements: the clients' latencies and completion times, and the
// traced round's per-request records.
func measurementBytes(outs []clientOutcome, tr *serveTrace) uintptr {
	var n uintptr
	for _, o := range outs {
		n += uintptr(cap(o.latencies))*unsafe.Sizeof(float64(0)) + uintptr(cap(o.ends))*unsafe.Sizeof(time.Time{})
	}
	if tr != nil {
		n += uintptr(cap(tr.reqs)) * unsafe.Sizeof(reqTrace{})
	}
	return n
}

// windowRates sorts completion times and returns the completion rate
// (1/s) of each run of window consecutive completions.
func windowRates(ends []time.Time, window int) []float64 {
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	var rates []float64
	for i := window; i < len(ends); i += window {
		if d := ends[i].Sub(ends[i-window]); d > 0 {
			rates = append(rates, float64(window)/d.Seconds())
		}
	}
	return rates
}

// maxSample returns the largest value among a family's series.
func maxSample(reg *metrics.Registry, name string) float64 {
	m := 0.0
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Value > m {
			m = s.Value
		}
	}
	return m
}
