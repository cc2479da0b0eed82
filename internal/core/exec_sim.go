package core

import (
	"fmt"
	"sync"
	"time"

	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/timesim"
)

// simExec schedules the action graph on a virtual clock. Each stream
// sink is a serially-occupied compute slot; each direction of each
// card's PCIe link is a DMA resource. Durations come from the
// platform cost model, so paper-scale runs finish in milliseconds of
// wall time. Sim mode assumes a single host goroutine (all the
// harness drivers are sequential), which makes runs deterministic.
type simExec struct {
	rt  *Runtime
	eng *timesim.Engine
	// mu guards hostTime, which is also read by the debug server's
	// Status snapshot from arbitrary goroutines; the engine clock
	// stays single-goroutine and unlocked.
	mu       sync.Mutex
	hostTime time.Duration
	// links[i] holds the two DMA directions for domain i
	// (0: source→sink, 1: sink→source); nil for the host.
	links [][2]*timesim.Resource
	// linkMet[i] holds the per-direction byte/transfer counters and
	// occupancy histograms for domain i — Sim mode never touches the
	// fabric, so modeled traffic is accounted here under the same
	// metric families.
	linkMet [][2]struct {
		bytes, xfers *metrics.Counter
		occ          *metrics.Histogram
	}
}

func newSimExec(rt *Runtime) *simExec {
	se := &simExec{rt: rt, eng: timesim.NewEngine()}
	se.links = make([][2]*timesim.Resource, len(rt.domains))
	se.linkMet = make([][2]struct {
		bytes, xfers *metrics.Counter
		occ          *metrics.Histogram
	}, len(rt.domains))
	host := rt.domains[0].spec.Name
	for i := 1; i < len(rt.domains); i++ {
		name := rt.domains[i].spec.Name
		se.links[i] = [2]*timesim.Resource{
			timesim.NewResource(name + ".dma.toSink"),
			timesim.NewResource(name + ".dma.toSrc"),
		}
		se.linkMet[i][0].bytes = rt.mets.linkBytes.With(host, name)
		se.linkMet[i][0].xfers = rt.mets.linkXfers.With(host, name)
		se.linkMet[i][0].occ = rt.mets.linkOcc.With(host, name)
		se.linkMet[i][1].bytes = rt.mets.linkBytes.With(name, host)
		se.linkMet[i][1].xfers = rt.mets.linkXfers.With(name, host)
		se.linkMet[i][1].occ = rt.mets.linkOcc.With(name, host)
	}
	return se
}

func (se *simExec) launch(a *Action) {
	// a.ready carries the exact earliest start: the source thread's
	// enqueue time, raised by each completing dependence (see
	// Runtime.finish). It is deliberately independent of the engine
	// clock, which may have been pumped ahead.
	ready := a.ready
	s := a.stream
	var start, end time.Duration
	switch a.kind {
	case ActCompute:
		dur := platform.ComputeTime(s.domain.spec, s.nCores, spanCost(&a.span))
		start, end = s.slot.Reserve(ready, dur)
	case ActXferToSink, ActXferToSrc:
		if s.domain.IsHost() {
			// Host-as-target: instances alias, transfer optimized away.
			start, end = ready, ready
		} else {
			dir := 0
			if a.kind == ActXferToSrc {
				dir = 1
			}
			dur := se.rt.machine.LinkFor(s.domain.index - 1).TransferTime(a.span.Bytes)
			start, end = se.links[s.domain.index][dir].Reserve(ready, dur)
			se.linkMet[s.domain.index][dir].bytes.Add(a.span.Bytes)
			se.linkMet[s.domain.index][dir].xfers.Inc()
			se.linkMet[s.domain.index][dir].occ.Observe(dur)
		}
	case ActSync:
		start, end = ready, ready
	}
	a.span.Launch, a.span.Finish = start, end
	se.eng.Post(end, (*simCompletion)(a))
}

// simCompletion is an action viewed as its own completion event: the
// engine stores the pointer in its queue, so posting a completion
// allocates nothing.
type simCompletion Action

// Fire finishes the action when the engine reaches its end time.
func (c *simCompletion) Fire() {
	a := (*Action)(c)
	a.stream.rt.finish(a, nil)
}

// Inflight thresholds: when a stream's incomplete-action window grows
// past high, the executor pumps completions until it shrinks below
// low, keeping the per-enqueue dependence scan bounded for programs
// with hundreds of thousands of actions.
const (
	simInflightHigh = 4096
	simInflightLow  = 1024
)

// maybeDrain pumps the engine while stream s has a large incomplete
// window. Safe because start times come from propagated ready times,
// not the engine clock. The window size comes from the stream's
// atomic depth counter — the seed took the runtime lock on every
// pump iteration just to read len(inflight).
func (se *simExec) maybeDrain(s *Stream) {
	if s.ndepth.Load() < simInflightHigh {
		return
	}
	for s.ndepth.Load() > simInflightLow {
		if !se.eng.Step() {
			return
		}
	}
}

func (se *simExec) waitAction(a *Action) {
	if se.eng.RunUntil(a.Completed) {
		// The host blocked until the action completed; its thread
		// resumes no earlier than that.
		se.mu.Lock()
		if se.hostTime < a.span.Finish {
			se.hostTime = a.span.Finish
		}
		se.mu.Unlock()
		return
	}
	if !a.Completed() {
		panic(fmt.Sprintf("core: deadlock waiting for action %d (%s) in %s", a.span.ID, a.kind, a.stream.name))
	}
}

func (se *simExec) now() time.Duration { return se.eng.Now() }

func (se *simExec) fini() { se.eng.Drain() }

// LinkBusy reports accumulated DMA busy time for a card domain
// direction (0: to sink, 1: to source); used by harness statistics.
func (se *simExec) LinkBusy(domainIndex, dir int) time.Duration {
	if se.links[domainIndex][dir] == nil {
		return 0
	}
	return se.links[domainIndex][dir].Busy()
}

// SimLinkBusy exposes Sim-mode DMA occupancy for harness statistics;
// it returns zero in Real mode.
func (rt *Runtime) SimLinkBusy(domainIndex, dir int) time.Duration {
	if se, ok := rt.exec.(*simExec); ok {
		return se.LinkBusy(domainIndex, dir)
	}
	return 0
}
