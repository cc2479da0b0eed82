package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// ActKind classifies an action.
type ActKind int

const (
	// ActCompute is a kernel invocation at the stream's sink.
	ActCompute ActKind = iota
	// ActXferToSink moves operand bytes from the source instance to
	// the sink instance.
	ActXferToSink
	// ActXferToSrc moves operand bytes from the sink instance back to
	// the source instance.
	ActXferToSrc
	// ActSync is a synchronization marker: it orders against every
	// earlier action in its stream and every later one.
	ActSync
)

// String labels the action kind for traces and error text.
func (k ActKind) String() string {
	switch k {
	case ActCompute:
		return "compute"
	case ActXferToSink:
		return "xfer→sink"
	case ActXferToSrc:
		return "xfer→src"
	case ActSync:
		return "sync"
	default:
		return fmt.Sprintf("ActKind(%d)", int(k))
	}
}

// Action is one enqueued unit of work. A completed action doubles as
// an event: it can be waited on by the host (Runtime.EventWait) or by
// other streams (Stream.EnqueueEventWait).
type Action struct {
	kind   ActKind
	stream *Stream

	// Compute payload. args and ops point into argbuf and opbuf when
	// they fit (enqueue copies the caller's slices), so the common
	// tile action allocates no slices and the caller's slice literals
	// stay on its stack. The action's id, label, transfer bytes and
	// cost live in span (see below).
	kernelID int64
	kernelFn Kernel
	args     []int64
	argbuf   [3]int64
	// Operands (compute: user-declared; transfers: the moved range).
	ops   []Operand
	opbuf [3]Operand

	// Scheduling state. succs, lastSucc and slot are guarded by the
	// owning stream's lock (for succs/lastSucc that is the lock of
	// *this* action's stream — successors are registered while holding
	// the predecessor's stream lock). npend and state are atomic: a
	// predecessor in another stream decrements npend without taking
	// this stream's lock, and exactly one decrement-to-zero launches.
	// succs starts on succbuf, so the usual one or two successors cost
	// no allocation; append spills to the heap past it.
	npend    atomic.Int64
	succs    []*Action
	succbuf  [2]*Action
	lastSucc uint64 // id of the newest successor; O(1) dedup stamp
	slot     int    // index in stream.inflight; O(1) swap retirement
	state    atomic.Int32
	fin      atomic.Bool

	// depbuf backs span.Deps, the causal in-edges the flight recorder
	// keeps (why this action waited): written at enqueue by the
	// enqueuing goroutine, published at finish (ordered by the launch
	// handoff). span.Deps stays nil when causal tracing is off, and
	// append spills to the heap past depbuf's capacity.
	depbuf [4]trace.Dep
	// span is the flight-recorder entry, embedded here so recording a
	// completed action allocates nothing, and it is also the only
	// copy of the action's identity and lifecycle, whether or not
	// tracing is on: ID, run, kind, stream, domain, Label, Bytes
	// (transfers), the cost (Flops and the Cost* fields; see setCost),
	// and the four phase timestamps on the runtime clock — Enqueue when
	// the action entered its stream, Ready when its last dependence
	// resolved (== Enqueue if none were pending), Launch and Finish the
	// executed interval. With tracing on, finish adds the outcome and a
	// card transfer's link names and stores the span's address in the
	// ring.
	span trace.Span

	// ready is the earliest virtual start (Sim mode): the source
	// thread's enqueue completion time.
	ready time.Duration

	// Results. fin (above) flips after err and the timestamps are in
	// place; doneCh is allocated lazily by the first waiter, so the hot
	// path (most actions are never waited on individually) allocates
	// no channel at all — see Done for the fin/doneCh ordering dance.
	// closed makes the close of doneCh happen exactly once.
	doneCh atomic.Pointer[chan struct{}]
	closed atomic.Bool
	// started guards span.Launch so retries and re-routes never
	// restamp it; replay marks a checkpoint replay (see below).
	started bool
	replay  bool
	err     error

	// Resilience bookkeeping (exec_real.go / resilience.go), written
	// only by the executor goroutine running the action and read at
	// finish on that same goroutine — no atomics needed. The reporting
	// counters live behind the res pointer, allocated on the first
	// resilience event: fault-free finishes (the overwhelmingly common
	// case, and the only case Sim mode ever sees) then pay one nil
	// check instead of copying four always-zero fields — measured at
	// ~1.5pp of the <5% tracing budget on the tier-1 matmul.
	//
	// Replay mode (checkpoint.go): the dependence set is prescribed by
	// a checkpoint instead of discovered from operands, so enqueue
	// skips the operand scan and barrier bookkeeping; the recorded
	// edge kinds come in as enqueue's whys argument.
	res *resNote
}

// resNote is an action's resilience report, allocated lazily on the
// first retry/deadline/re-route event (resilience is Real-mode only
// and faults are rare, so most actions never carry one). finish
// copies it into the span when present.
type resNote struct {
	retries     int
	retryWait   time.Duration
	deadlineHit bool
	rerouted    bool
	// exhausted marks an action that failed after consuming its full
	// retry budget; finish turns it into an EvRetriesExhausted
	// lifecycle event (events.go) so journal emission stays off the
	// attempt path.
	exhausted bool
}

// resNote returns the action's resilience report, allocating it on
// first use. Called only from the executor goroutine running the
// action, like every other access to the resilience fields.
func (a *Action) resNote() *resNote {
	if a.res == nil {
		a.res = &resNote{}
	}
	return a.res
}

type actState = int32

const (
	statePending actState = iota
	stateLaunched
	stateDone
)

// completed reports the scheduler-internal done state; unlike the
// public Completed it is meant for use under the stream lock that
// finish holds while storing stateDone, so index pruning and addDep
// see a consistent value.
func (a *Action) completed() bool { return a.state.Load() == stateDone }

// ID returns the action's runtime-unique id.
func (a *Action) ID() uint64 { return a.span.ID }

// Kind returns the action's kind.
func (a *Action) Kind() ActKind { return a.kind }

// Stream returns the stream the action was enqueued into.
func (a *Action) Stream() *Stream { return a.stream }

// closedDone is the shared already-closed channel handed to waiters
// that arrive after completion without a channel ever being registered.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Done returns a channel closed when the action completes. The channel
// is allocated on first call — enqueueing an action no longer pays for
// a channel nobody waits on. Publication races with finish: both sides
// close through closeDone, and the fin/doneCh access order (finish
// stores fin then loads doneCh; Done publishes doneCh then loads fin)
// guarantees at least one side closes a channel registered either way.
func (a *Action) Done() <-chan struct{} {
	if p := a.doneCh.Load(); p != nil {
		return *p
	}
	if a.fin.Load() {
		return closedDone
	}
	ch := make(chan struct{})
	if !a.doneCh.CompareAndSwap(nil, &ch) {
		return *a.doneCh.Load()
	}
	if a.fin.Load() {
		a.closeDone(ch)
	}
	return ch
}

// closeDone closes the registered done channel; whichever of Done and
// finish gets here first closes it, the other does nothing.
func (a *Action) closeDone(ch chan struct{}) {
	if a.closed.CompareAndSwap(false, true) {
		close(ch)
	}
}

// Completed reports whether the action has finished.
func (a *Action) Completed() bool { return a.fin.Load() }

// Err returns the action's error; valid after completion.
func (a *Action) Err() error { return a.err }

// Wait blocks the host until the action completes and returns its
// error. In Sim mode it pumps the virtual clock.
func (a *Action) Wait() error {
	a.stream.rt.exec.waitAction(a)
	return a.err
}

// Times returns the executed interval on the runtime clock; valid
// after completion.
func (a *Action) Times() (start, end time.Duration) { return a.span.Launch, a.span.Finish }

// enqueue computes dependences under the FIFO-semantic rule and hands
// ready actions to the executor. extraDeps carry cross-stream event
// waits; whys, set only by checkpoint replay, names the recorded edge
// kind of each (DepEvent where it is short).
//
// Dependence discovery queries the stream's operand-interval index
// (depindex.go) instead of scanning the inflight window, and the only
// locks taken are the enqueuing stream's — plus, briefly, the stream
// lock of each explicit cross-stream dependence — so enqueues on
// different streams never contend. At most one stream lock is held at
// any moment, which rules out lock-order deadlocks by construction.
func (rt *Runtime) enqueue(a *Action, extraDeps []*Action, whys []trace.DepKind) (*Action, error) {
	for _, o := range a.ops {
		if !o.valid() {
			return nil, ErrBadOperand
		}
		if o.Buf.rt != rt {
			return nil, ErrWrongRuntime
		}
	}
	for _, d := range extraDeps {
		if d.stream.rt != rt {
			return nil, ErrWrongRuntime
		}
	}
	if rt.finalized.Load() {
		return nil, ErrFinalized
	}
	// Retain each operand's buffer before checking its lifecycle
	// state: a concurrent Free either sees the reference and defers
	// reclamation to our release, or has already left the live state
	// and the enqueue fails here (see Buf.retain).
	for i, o := range a.ops {
		if !o.Buf.retain() {
			releaseOps(a.ops[:i+1])
			return nil, errBufferFreed(o.Buf)
		}
	}
	s := a.stream
	// The span's identity fields feed the timeline record as well as
	// the flight recorder, so they are filled traced or not.
	sp := &a.span
	sp.ID = rt.nextID.Add(1)
	sp.Run = rt.runID
	sp.Kind = traceKind(a.kind)
	sp.Stream = s.name
	sp.Domain = s.domain.spec.Name
	// Hold one pending token until the OnEnqueue hook has fired:
	// without it a predecessor finishing on another goroutine could
	// launch this action — and notify OnReady/OnLaunch — before its
	// OnEnqueue, breaking the per-action hook ordering contract.
	a.npend.Store(1)

	// Sim-mode source thread accounting: each enqueue call costs
	// SourceOverhead on the host thread. (The host clock advances on
	// waits, not with the engine, which may be pumped ahead.)
	if rt.cfg.Mode == ModeSim {
		se := rt.exec.(*simExec)
		se.mu.Lock()
		se.hostTime += rt.cfg.SourceOverhead
		a.ready = se.hostTime
		a.span.Enqueue = se.hostTime
		se.mu.Unlock()
	} else {
		a.span.Enqueue = rt.exec.now()
	}

	// addDep links a behind predecessor b. Must run while holding b's
	// stream lock; tolerates duplicates (the lastSucc stamp replaces
	// the seed's linear succs scan) and completed predecessors.
	nDeps := 0
	capture := rt.flight != nil
	addDep := func(b *Action, why trace.DepKind) {
		if b == a || b.completed() || b.lastSucc == a.span.ID {
			return
		}
		b.lastSucc = a.span.ID
		if b.succs == nil {
			b.succs = b.succbuf[:0]
		}
		b.succs = append(b.succs, a)
		a.npend.Add(1)
		nDeps++
		if capture {
			if a.span.Deps == nil {
				a.span.Deps = a.depbuf[:0]
			}
			a.span.Deps = append(a.span.Deps, trace.Dep{ID: b.span.ID, Why: why})
		}
	}
	fifoDep := func(b *Action) { addDep(b, trace.DepFIFO) }

	s.mu.Lock()
	for {
		if s.destroyed {
			s.mu.Unlock()
			releaseOps(a.ops)
			return nil, ErrBadStream
		}
		// Bounded-queue admission: the check runs under s.mu, so the
		// append below can never push len(inflight) past the bound —
		// the depth-peak gauge is capped by construction.
		if s.maxDepth <= 0 || len(s.inflight) < s.maxDepth {
			break
		}
		if s.policy == QueueShed {
			depth := len(s.inflight)
			s.mu.Unlock()
			s.met.shed.Inc()
			releaseOps(a.ops)
			return nil, errQueueFull(s, depth)
		}
		// QueueBlock: wait for any inflight member to retire, then
		// re-evaluate. The wait pumps the virtual clock in Sim mode,
		// so the source thread's time advances across the stall and
		// the action's earliest start moves with it.
		head := s.inflight[0]
		s.mu.Unlock()
		s.met.blocked.Inc()
		rt.exec.waitAction(head)
		if rt.cfg.Mode == ModeSim {
			se := rt.exec.(*simExec)
			se.mu.Lock()
			if a.ready < se.hostTime {
				a.ready = se.hostTime
				a.span.Enqueue = se.hostTime
			}
			se.mu.Unlock()
		}
		s.mu.Lock()
	}
	// Dependences: program order within the stream, restricted to
	// hazardous operand overlap; sync actions order against
	// everything (paper §II: actions are free to execute and complete
	// out of order as long as the FIFO semantic is not violated).
	if a.replay {
		// Replay: the checkpoint prescribes the full edge set via
		// extraDeps; discovery and barrier bookkeeping would invent
		// edges the original run never had.
	} else if a.kind == ActSync {
		for _, b := range s.inflight {
			addDep(b, trace.DepSync)
		}
		// The barrier dominates everything before it: later actions
		// depend on it alone, and the epoch bump lazily invalidates
		// every operand interval (depindex.go).
		s.barrier = a
		s.epoch++
	} else {
		if bar := s.barrier; bar != nil {
			addDep(bar, trace.DepSync)
		}
		for _, o := range a.ops {
			s.depScan(a, o, fifoDep)
		}
	}
	a.slot = len(s.inflight)
	s.inflight = append(s.inflight, a)
	s.mu.Unlock()

	for i, d := range extraDeps {
		why := trace.DepEvent
		if i < len(whys) {
			why = whys[i]
		}
		ds := d.stream
		ds.mu.Lock()
		addDep(d, why)
		ds.mu.Unlock()
	}

	rt.outstanding.Add(1)
	depth := s.ndepth.Add(1)
	k := metricKind(a.kind)
	s.met.enq[k].Inc()
	s.met.depth.Add(1)
	s.met.depthPeak.SetMax(depth)
	rt.notifyEnqueue(a)

	// Release the hook-ordering token; the decrement that lands on
	// zero — here or in a predecessor's finish — launches, exactly
	// once.
	if a.npend.Add(-1) == 0 {
		a.state.Store(stateLaunched)
		switch {
		case nDeps == 0:
			a.span.Ready = a.span.Enqueue
		case rt.cfg.Mode == ModeSim:
			a.span.Ready = a.ready
		default:
			a.span.Ready = rt.exec.now()
		}
		rt.notifyReadyLaunch(a)
		rt.exec.launch(a)
	}
	// Replay must not pump completions mid-enqueue: a predecessor
	// finishing before its successor enqueues would drop the recorded
	// edge (addDep skips completed predecessors), breaking the
	// edge-for-edge identity the replay asserts.
	if se, ok := rt.exec.(*simExec); ok && !a.replay {
		se.maybeDrain(s)
	}
	return a, nil
}

// finish completes an action: records the trace, retires it from its
// stream in O(1) by swapping the last inflight entry into its slot,
// and launches any successors whose last dependence this was.
// Executors call it exactly once per action.
func (rt *Runtime) finish(a *Action, err error) {
	s := a.stream
	s.mu.Lock()
	a.err = err
	a.state.Store(stateDone)
	last := len(s.inflight) - 1
	i := a.slot
	moved := s.inflight[last]
	s.inflight[i] = moved
	moved.slot = i
	s.inflight[last] = nil
	s.inflight = s.inflight[:last]
	if s.barrier == a {
		s.barrier = nil
	}
	// Interval-index entries owned by a stay behind; queries prune
	// them lazily now that completed() reports done (depindex.go).
	succs := a.succs
	// Retired actions may be pinned for a long time by the flight
	// recorder (the ring stores &a.span); drop the execution payload so
	// a pinned action does not keep successors, operands, and kernel
	// closures reachable. ops are released below, outside the lock —
	// the release that reclaims a free-pending buffer takes stream
	// locks itself.
	ops := a.ops
	a.succs = nil
	a.ops = nil
	a.kernelFn = nil
	a.args = nil
	s.mu.Unlock()
	releaseOps(ops)
	// The inline operand copy still holds buffer pointers; clear it
	// for the same reason (nothing reads it once ops is nil).
	a.opbuf = [len(a.opbuf)]Operand{}

	rt.outstanding.Add(-1)
	s.ndepth.Add(-1)
	s.met.depth.Add(-1)
	s.met.retired.Inc()

	sim := rt.cfg.Mode == ModeSim
	// Ready successors collect in a stack array; more than its capacity
	// at once is rare and spills to the heap.
	var readyBuf [8]*Action
	ready := readyBuf[:0]
	for _, succ := range succs {
		// Successors may start no earlier than this completion; the
		// Sim executor reads the propagated ready time rather than
		// the engine clock, so the clock can be pumped ahead safely.
		// (ready is only touched in Sim mode, where everything runs
		// on the single host goroutine.)
		if sim && succ.ready < a.span.Finish {
			succ.ready = a.span.Finish
		}
		if succ.npend.Add(-1) == 0 {
			succ.state.Store(stateLaunched)
			if sim {
				succ.span.Ready = succ.ready
			} else {
				succ.span.Ready = rt.exec.now()
			}
			ready = append(ready, succ)
		}
	}
	// No addDep reaches a completed action, so once the loop is done
	// nothing reads the inline successors; clear them so a pinned
	// action does not keep its successors reachable.
	a.succbuf = [len(a.succbuf)]*Action{}

	rt.setErr(err)
	rt.observeFinish(a, err)
	sp := &a.span
	rt.rec.Add(trace.Record{
		ID:     sp.ID,
		Kind:   sp.Kind,
		Stream: sp.Stream,
		Domain: sp.Domain,
		Label:  sp.Label,
		Start:  sp.Launch,
		End:    sp.Finish,
		Bytes:  sp.Bytes,
		Flops:  sp.Flops,
	})
	if rt.flight != nil {
		// Identity, cost and timestamps are in place; only the outcome
		// and a card transfer's link direction are new.
		sp.Err = err != nil
		if r := a.res; r != nil {
			sp.Retries = r.retries
			sp.RetryWait = r.retryWait
			sp.DeadlineHit = r.deadlineHit
			sp.Rerouted = r.rerouted
			rt.emitResEvents(a, r, err)
		}
		// Host-as-target transfers alias instances and move nothing,
		// so only card-domain transfers name a link direction.
		if !s.domain.IsHost() {
			host := rt.domains[0].spec.Name
			switch a.kind {
			case ActXferToSink:
				sp.Src, sp.Dst = host, sp.Domain
			case ActXferToSrc:
				sp.Src, sp.Dst = sp.Domain, host
			}
		}
		rt.flight.Record(sp)
	} else if r := a.res; r != nil {
		// Tracing disabled: lifecycle events still flow. Either branch
		// tests a.res exactly once, keeping the fault-free finish at a
		// single nil check (the lazily-allocated resNote contract the
		// telemetry overhead budget counts on).
		rt.emitResEvents(a, r, err)
	}
	a.fin.Store(true)
	if p := a.doneCh.Load(); p != nil {
		a.closeDone(*p)
	}
	rt.notifyFinish(a)
	for _, r := range ready {
		rt.notifyReadyLaunch(r)
		rt.exec.launch(r)
	}
}

// setCost stores the platform cost descriptor in the span's cost
// fields, its only copy.
func (a *Action) setCost(c platform.Cost) {
	sp := &a.span
	sp.Flops = c.Flops
	sp.CostKernel = int(c.Kernel)
	sp.CostN = c.N
	sp.CostBytes = c.Bytes
	sp.CostExtra = c.Extra
}

// spanCost rebuilds the platform cost descriptor a span records.
func spanCost(sp *trace.Span) platform.Cost {
	return platform.Cost{
		Kernel: platform.Kernel(sp.CostKernel),
		Flops:  sp.Flops,
		N:      sp.CostN,
		Bytes:  sp.CostBytes,
		Extra:  sp.CostExtra,
	}
}

// traceKind maps an action kind to its timeline kind.
func traceKind(k ActKind) trace.Kind {
	switch k {
	case ActXferToSink, ActXferToSrc:
		return trace.Transfer
	case ActSync:
		return trace.Sync
	}
	return trace.Compute
}

// errBufferFreed and errQueueFull format enqueue's rejections out of
// line, keeping their formatting temporaries out of enqueue's frame
// (see setCompute for why that frame's size matters).
//
//go:noinline
func errBufferFreed(b *Buf) error { return fmt.Errorf("%w: %q", ErrBufferFreed, b.name) }

//go:noinline
func errQueueFull(s *Stream, depth int) error {
	return fmt.Errorf("%w: %s at depth %d", ErrQueueFull, s.name, depth)
}
