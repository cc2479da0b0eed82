package core

import (
	"time"

	"hstreams/internal/metrics"
)

// Metric kind labels collapse the two transfer directions into one
// "transfer" series (mirroring trace.Kind) so overlap analysis reads
// two families, not three.
const (
	mkCompute = iota
	mkTransfer
	mkSync
	mkCount
)

var metricKindNames = [mkCount]string{"compute", "transfer", "sync"}

func metricKind(k ActKind) int {
	switch k {
	case ActCompute:
		return mkCompute
	case ActXferToSink, ActXferToSrc:
		return mkTransfer
	default:
		return mkSync
	}
}

// coreMetrics holds the runtime's registered telemetry families.
// Per-stream handles are resolved once at StreamCreate (streamMetrics)
// so the per-action path is pure atomic adds.
type coreMetrics struct {
	enqueued      *metrics.CounterVec   // kind, domain
	actions       *metrics.CounterVec   // kind, domain
	errors        *metrics.Counter      // every action error
	errSuppressed *metrics.Counter      // errors after the first (not reported by Err)
	duration      *metrics.HistogramVec // kind, domain: launch→finish
	stall         *metrics.HistogramVec // kind, domain: enqueue→ready (dependency stall)
	sched         *metrics.HistogramVec // kind, domain: ready→launch (scheduler/resource latency)
	depth         *metrics.GaugeVec     // stream: current incomplete-action window
	depthPeak     *metrics.GaugeVec     // stream: high-water mark of the window
	retired       *metrics.CounterVec   // stream: completed actions — the watchdog's progress signal
	linkBytes     *metrics.CounterVec   // src, dst: payload bytes per link direction
	linkXfers     *metrics.CounterVec   // src, dst: transfers per link direction
	retries       *metrics.CounterVec   // domain: transient-failure re-attempts
	deadline      *metrics.CounterVec   // domain: actions that exceeded Config.Deadline
	rerouted      *metrics.CounterVec   // domain: actions re-routed to the host
	breakerTrip   *metrics.CounterVec   // domain: breaker trips (0 or 1 per domain per run)
	quarantined   *metrics.GaugeVec     // domain: 1 while quarantined
	domainStreams *metrics.GaugeVec     // domain: streams attached (telemetry capacity basis)
	linkOcc       *metrics.HistogramVec // src, dst: modeled/measured per-transfer link busy time

	// Buffer lifecycle (buffer.go). buffersLive returning to its
	// pre-Init baseline after Fini is the serving layer's leak check.
	buffersLive     *metrics.Gauge   // allocated-and-not-recycled buffers
	bufferBytes     *metrics.Gauge   // bytes held by live buffers
	buffersFreed    *metrics.Counter // Free calls accepted
	reclaimDeferred *metrics.Counter // frees deferred on in-flight references
	proxyRecycled   *metrics.Counter // proxy ranges returned to the allocator

	// Bounded-queue admission (Config.MaxQueueDepth).
	shed    *metrics.CounterVec // stream: enqueues refused with ErrQueueFull
	blocked *metrics.CounterVec // stream: enqueues that waited for queue space
}

func newCoreMetrics(reg *metrics.Registry) *coreMetrics {
	return &coreMetrics{
		enqueued:      reg.CounterVec("hstreams_actions_enqueued_total", "Actions accepted into streams by kind and sink domain.", "kind", "domain"),
		actions:       reg.CounterVec("hstreams_actions_total", "Actions completed by kind and sink domain.", "kind", "domain"),
		errors:        reg.Counter("hstreams_action_errors_total", "Actions that completed with an error."),
		errSuppressed: reg.Counter("hstreams_errors_suppressed_total", "Action errors observed after the first; Runtime.Err reports only the first."),
		duration:      reg.HistogramVec("hstreams_action_duration_seconds", "Action execution time (launch to finish) by kind and sink domain.", nil, "kind", "domain"),
		stall:         reg.HistogramVec("hstreams_dep_stall_seconds", "Time actions spent blocked on dependences (enqueue to ready).", nil, "kind", "domain"),
		sched:         reg.HistogramVec("hstreams_sched_latency_seconds", "Time from dependence resolution to execution start (resource contention).", nil, "kind", "domain"),
		depth:         reg.GaugeVec("hstreams_queue_depth", "Enqueued-but-incomplete actions per stream.", "stream"),
		depthPeak:     reg.GaugeVec("hstreams_queue_depth_peak", "High-water mark of hstreams_queue_depth per stream.", "stream"),
		retired:       reg.CounterVec("hstreams_stream_retired_total", "Actions retired (completed) per stream; the stall watchdog's progress signal.", "stream"),
		linkBytes:     reg.CounterVec("hstreams_link_bytes_total", "Payload bytes moved per link direction.", "src", "dst"),
		linkXfers:     reg.CounterVec("hstreams_link_transfers_total", "Transfers per link direction.", "src", "dst"),
		retries:       reg.CounterVec("hstreams_retries_total", "Re-attempts of transiently failing card actions, by domain.", "domain"),
		deadline:      reg.CounterVec("hstreams_deadline_exceeded_total", "Actions that exhausted their per-action deadline, by domain.", "domain"),
		rerouted:      reg.CounterVec("hstreams_rerouted_total", "Actions re-routed from a quarantined domain to the host, by original domain.", "domain"),
		breakerTrip:   reg.CounterVec("hstreams_breaker_trips_total", "Domain circuit-breaker trips.", "domain"),
		quarantined:   reg.GaugeVec("hstreams_domain_quarantined", "1 while the domain is quarantined by its breaker, else 0.", "domain"),
		domainStreams: reg.GaugeVec("hstreams_domain_streams", "Streams whose sink is bound to the domain; the telemetry layer's utilization-capacity basis.", "domain"),
		linkOcc:       reg.HistogramVec("hstreams_link_occupancy_seconds", "Per-transfer link busy time by direction; the windowed _sum delta over wall time is link occupancy.", nil, "src", "dst"),

		buffersLive:     reg.Gauge("hstreams_buffers_live", "Buffers allocated and not yet recycled; returns to baseline after Fini — the leak check."),
		bufferBytes:     reg.Gauge("hstreams_buffer_bytes_live", "Bytes held by live buffers."),
		buffersFreed:    reg.Counter("hstreams_buffers_freed_total", "Buf.Free calls accepted (first Free per buffer)."),
		reclaimDeferred: reg.Counter("hstreams_buffers_reclaim_deferred_total", "Frees whose reclamation was deferred until in-flight references retired."),
		proxyRecycled:   reg.Counter("hstreams_proxy_recycled_total", "Proxy address ranges returned to the recycling allocator."),

		shed:    reg.CounterVec("hstreams_queue_shed_total", "Enqueues refused with ErrQueueFull by a full bounded queue under QueueShed, per stream.", "stream"),
		blocked: reg.CounterVec("hstreams_enqueue_blocked_total", "Enqueues that waited for queue space under QueueBlock, per stream.", "stream"),
	}
}

// streamMetrics caches one stream's resolved series handles.
type streamMetrics struct {
	enq, done         [mkCount]*metrics.Counter
	dur, stall, sched [mkCount]*metrics.Histogram
	depth, depthPeak  *metrics.Gauge
	retired           *metrics.Counter
	shed, blocked     *metrics.Counter
}

func (cm *coreMetrics) forStream(name, domain string) *streamMetrics {
	sm := &streamMetrics{
		depth:     cm.depth.With(name),
		depthPeak: cm.depthPeak.With(name),
		retired:   cm.retired.With(name),
		shed:      cm.shed.With(name),
		blocked:   cm.blocked.With(name),
	}
	for k := 0; k < mkCount; k++ {
		kind := metricKindNames[k]
		sm.enq[k] = cm.enqueued.With(kind, domain)
		sm.done[k] = cm.actions.With(kind, domain)
		sm.dur[k] = cm.duration.With(kind, domain)
		sm.stall[k] = cm.stall.With(kind, domain)
		sm.sched[k] = cm.sched.With(kind, domain)
	}
	return sm
}

// Metrics returns the registry the runtime reports into — the one
// supplied via Config.Metrics, or metrics.Default(). It stays
// readable after Fini.
func (rt *Runtime) Metrics() *metrics.Registry { return rt.reg }

// AddObserver registers an action-lifecycle observer. See
// metrics.Observer for the hook contract; observers added mid-run
// only see transitions that happen after registration.
func (rt *Runtime) AddObserver(o metrics.Observer) {
	if o == nil {
		return
	}
	rt.mu.Lock()
	obs := append(append([]metrics.Observer(nil), rt.observers()...), o)
	rt.obs.Store(&obs)
	rt.mu.Unlock()
}

// observers returns the current observer slice (nil when none).
func (rt *Runtime) observers() []metrics.Observer {
	p := rt.obs.Load()
	if p == nil {
		return nil
	}
	return *p
}

// event builds the observer payload for an action transition.
func (a *Action) event(when time.Duration) metrics.Event {
	return metrics.Event{
		Action: a.span.ID,
		Kind:   a.kind.String(),
		Stream: a.stream.name,
		Domain: a.stream.domain.spec.Name,
		Bytes:  a.span.Bytes,
		Flops:  a.span.Flops,
		When:   when,
		Err:    a.err,
	}
}

func (rt *Runtime) notifyEnqueue(a *Action) {
	for _, o := range rt.observers() {
		o.OnEnqueue(a.event(a.span.Enqueue))
	}
}

func (rt *Runtime) notifyReadyLaunch(a *Action) {
	for _, o := range rt.observers() {
		ev := a.event(a.span.Ready)
		o.OnReady(ev)
		o.OnLaunch(ev)
	}
}

func (rt *Runtime) notifyFinish(a *Action) {
	for _, o := range rt.observers() {
		o.OnFinish(a.event(a.span.Finish))
	}
}

// observeFinish records a completed action's aggregates. Called
// without any lock held; every touched metric is atomic. The depth
// gauge is maintained by Add(±1) at enqueue/finish — the seed's
// Set(len(inflight)) after lock release let concurrent completions
// publish stale, regressing depths.
func (rt *Runtime) observeFinish(a *Action, err error) {
	sm := a.stream.met
	k := metricKind(a.kind)
	sm.done[k].Inc()
	if rt.flight != nil {
		// Exemplar capture: tag each histogram bucket with the span id
		// that last landed in it, stamped with the span's own finish
		// time so no extra clock read happens on the hot path. With
		// causal tracing off there are no spans to link, so the plain
		// observes keep that arm a clean overhead baseline.
		when := int64(a.span.Finish)
		sm.dur[k].ObserveEx(a.span.Finish-a.span.Launch, a.span.ID, when)
		sm.stall[k].ObserveEx(a.span.Ready-a.span.Enqueue, a.span.ID, when)
		sm.sched[k].ObserveEx(a.span.Launch-a.span.Ready, a.span.ID, when)
	} else {
		sm.dur[k].Observe(a.span.Finish - a.span.Launch)
		sm.stall[k].Observe(a.span.Ready - a.span.Enqueue)
		sm.sched[k].Observe(a.span.Launch - a.span.Ready)
	}
	if err != nil {
		rt.mets.errors.Inc()
	}
}
