package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hstreams/internal/coi"
	"hstreams/internal/platform"
	"hstreams/internal/timesim"
	"hstreams/internal/trace"
)

// Stream is a task queue with a source endpoint (the host thread that
// enqueues) and a sink endpoint (a core range of one domain, where
// actions execute). Streams on the host domain are "host-as-target"
// streams: their sink aliases the source instances, so transfers are
// optimized away.
type Stream struct {
	rt        *Runtime
	id        int
	name      string
	domain    *Domain
	firstCore int
	nCores    int

	// mu is the stream's scheduling lock — the sharded replacement
	// for the seed's global runtime lock. It guards inflight (and the
	// slot field of its members), destroyed, the operand-interval
	// index, and the succs/lastSucc lists of this stream's actions.
	// The scheduler never holds two stream locks at once.
	mu sync.Mutex
	// inflight holds enqueued-but-incomplete actions; order is
	// arbitrary (finish retires by swapping the last entry into the
	// retiree's slot), membership is what matters.
	inflight []*Action
	// destroyed rejects further enqueues.
	destroyed bool
	// index is the per-buffer operand-interval dependence index; see
	// depindex.go. epoch numbers the current sync generation — a
	// mismatch marks an interval set as dominated by barrier and
	// resettable. barrier is the latest incomplete sync action.
	index   map[*Buf]*bufIvals
	epoch   uint64
	barrier *Action

	// maxDepth bounds len(inflight); 0 is unbounded. policy picks
	// block or shed at the bound. Both are guarded by mu and default
	// to the runtime Config values.
	maxDepth int
	policy   QueuePolicy

	// ndepth mirrors len(inflight) as an atomic so the Sim drain loop
	// and the depth-peak gauge read it without taking mu.
	ndepth atomic.Int64

	// met caches this stream's resolved metric series.
	met *streamMetrics

	// Real-mode execution state. computeMu may be shared with other
	// streams mapped onto the same resources (see StreamCreateOn).
	computeMu *sync.Mutex
	pipeline  *coi.Pipeline

	// Sim-mode execution state; may be shared (see StreamCreateOn).
	slot *timesim.Resource
}

// StreamCreate binds a new stream's sink to cores
// [firstCore, firstCore+nCores) of domain d
// (hStreams_StreamCreate). Overlapping core ranges between streams
// are permitted — the paper lets tuners map multiple streams onto
// common resources.
func (rt *Runtime) StreamCreate(d *Domain, firstCore, nCores int) (*Stream, error) {
	return rt.StreamCreateOn(d, firstCore, nCores, nil)
}

// StreamCreateOn is StreamCreate with explicit resource sharing: when
// share is non-nil (and bound to the same domain), the new stream
// executes its computes on the same physical resources as share, so
// computes of the two streams contend instead of running in parallel.
// This is how tuners "map multiple streams onto a common set of
// resources" (§II), and how the CUDA-comparison model expresses
// streams that share one device-wide scheduler.
func (rt *Runtime) StreamCreateOn(d *Domain, firstCore, nCores int, share *Stream) (*Stream, error) {
	if d == nil || d.rt != rt {
		return nil, ErrWrongRuntime
	}
	if share != nil && share.domain != d {
		return nil, ErrBadStream
	}
	if nCores < 1 || firstCore < 0 || firstCore+nCores > d.spec.Cores() {
		return nil, fmt.Errorf("%w: cores [%d,%d) on %s with %d cores",
			ErrBadStream, firstCore, firstCore+nCores, d.spec.Name, d.spec.Cores())
	}
	rt.mu.Lock()
	if rt.finalized.Load() {
		rt.mu.Unlock()
		return nil, ErrFinalized
	}
	s := &Stream{
		rt:        rt,
		id:        len(rt.streams),
		domain:    d,
		firstCore: firstCore,
		nCores:    nCores,
		index:     make(map[*Buf]*bufIvals),
		maxDepth:  rt.cfg.MaxQueueDepth,
		policy:    rt.cfg.QueuePolicy,
	}
	s.name = fmt.Sprintf("%s.s%d", d.spec.Name, s.id)
	// met must be resolved before the stream is published in
	// rt.streams: Progress() snapshots that slice under rt.mu and
	// reads s.met without further coordination.
	s.met = rt.mets.forStream(s.name, d.spec.Name)
	rt.streams = append(rt.streams, s)
	rt.mu.Unlock()
	// The per-domain stream count is the telemetry layer's capacity
	// basis (utilization = busy-seconds / (span × streams)); streams
	// are never destroyed below the runtime, so the gauge only rises.
	rt.mets.domainStreams.With(d.spec.Name).Add(1)
	recordStreamGeom(rt, s)

	switch rt.cfg.Mode {
	case ModeSim:
		if share != nil {
			s.slot = share.slot
		} else {
			s.slot = timesim.NewResource(s.name)
		}
	case ModeReal:
		if share != nil {
			s.computeMu = share.computeMu
		} else {
			s.computeMu = new(sync.Mutex)
		}
		if !d.IsHost() {
			pl, err := rt.procs[d.index].CreatePipeline()
			if err != nil {
				return nil, err
			}
			s.pipeline = pl
		}
	}
	return s, nil
}

// ID returns the stream's integer handle — hStreams represents
// streams by plain integers, unlike CUDA's opaque pointers (§IV).
func (s *Stream) ID() int { return s.id }

// Name returns the stream's trace name.
func (s *Stream) Name() string { return s.name }

// Domain returns the domain the sink is bound to.
func (s *Stream) Domain() *Domain { return s.domain }

// Width returns the number of cores granted to the sink.
func (s *Stream) Width() int { return s.nCores }

// SetQueueBound overrides the stream's queue bound and full-queue
// policy (the defaults come from Config.MaxQueueDepth/QueuePolicy).
// depth 0 removes the bound. Enqueues already blocked on the old
// bound re-evaluate against the new one as they retry.
func (s *Stream) SetQueueBound(depth int, policy QueuePolicy) {
	s.mu.Lock()
	s.maxDepth = depth
	s.policy = policy
	s.mu.Unlock()
}

// QueueBound returns the stream's current queue bound (0 when
// unbounded) and full-queue policy.
func (s *Stream) QueueBound() (depth int, policy QueuePolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxDepth, s.policy
}

// EnqueueCompute enqueues a kernel invocation
// (hStreams_EnqueueCompute). The kernel is looked up by name at the
// sink; args are scalar arguments; ops declare the memory operands
// that drive dependence analysis; cost informs the Sim-mode duration
// model (ignored in Real mode). The returned action is also the
// completion event.
func (s *Stream) EnqueueCompute(kernel string, args []int64, ops []Operand, cost platform.Cost) (*Action, error) {
	return s.EnqueueComputeDeps(kernel, args, ops, cost, nil)
}

// EnqueueComputeDeps is EnqueueCompute with additional explicit
// dependences on events from other streams. Unlike a preceding
// EnqueueEventWait (which bars the whole stream), only this action
// waits: later independent actions in the stream may still overtake
// it — the fine-grained cross-stream synchronization that layered
// runtimes (OmpSs) rely on (§IV: "dependencies are based on a
// data-flow approach").
func (s *Stream) EnqueueComputeDeps(kernel string, args []int64, ops []Operand, cost platform.Cost, deps []*Action) (*Action, error) {
	a := &Action{kind: ActCompute, stream: s}
	a.setCost(cost)
	if err := a.setCompute(kernel, args, ops); err != nil {
		return nil, err
	}
	return s.rt.enqueue(a, deps, nil)
}

// setCompute resolves a compute's kernel (Real mode) and copies its
// args and ops into the action rather than keeping the caller's
// slices: the inline buffers absorb the common case, and the caller's
// literals do not escape. It is kept out of line so its temporaries
// are not part of EnqueueComputeDeps' frame, which stays on the stack
// through enqueue and the dependence scan: hsserve runs each
// submission on a fresh goroutine, whose small initial stack that path
// must fit without growing.
//
//go:noinline
func (a *Action) setCompute(kernel string, args []int64, ops []Operand) error {
	a.span.Label = kernel
	if rt := a.stream.rt; rt.cfg.Mode == ModeReal {
		fn, id, ok := rt.kernelByName(kernel)
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoKernel, kernel)
		}
		a.kernelFn, a.kernelID = fn, id
	}
	if len(args) > 0 {
		a.args = append(a.argbuf[:0], args...)
	}
	if len(ops) > 0 {
		a.ops = append(a.opbuf[:0], ops...)
	}
	return nil
}

// XferDir selects a transfer direction relative to the stream's sink.
type XferDir int

const (
	// ToSink moves source-instance bytes to the sink instance
	// (hStreams_app_xfer_memory HSTR_SRC_TO_SINK).
	ToSink XferDir = iota
	// ToSource moves sink-instance bytes back to the source.
	ToSource
)

// EnqueueXfer enqueues a transfer of b[off:off+n] in the given
// direction. On host-as-target streams the instances alias, so the
// action costs nothing but still participates in dependence order.
func (s *Stream) EnqueueXfer(b *Buf, off, n int64, dir XferDir) (*Action, error) {
	return s.EnqueueXferDeps(b, off, n, dir, nil)
}

// EnqueueXferDeps is EnqueueXfer with additional explicit dependences
// (see EnqueueComputeDeps).
func (s *Stream) EnqueueXferDeps(b *Buf, off, n int64, dir XferDir, deps []*Action) (*Action, error) {
	acc, kind, lab := Out, ActXferToSink, ToSink
	if dir == ToSource {
		acc, kind, lab = In, ActXferToSrc, ToSource
	}
	a := &Action{kind: kind, stream: s}
	a.span.Bytes = n
	if b != nil { // a nil buffer fails enqueue's operand check
		a.span.Label = b.xferLabel[lab]
	}
	a.opbuf[0] = Operand{Buf: b, Off: off, Len: n, Acc: acc}
	a.ops = a.opbuf[:1]
	return s.rt.enqueue(a, deps, nil)
}

// EnqueueXferAll transfers the whole buffer.
func (s *Stream) EnqueueXferAll(b *Buf, dir XferDir) (*Action, error) {
	return s.EnqueueXfer(b, 0, b.size, dir)
}

// EnqueueMarker enqueues a synchronization marker that orders against
// every earlier and later action in the stream and completes when all
// its predecessors have (hStreams_EnqueueMarker).
func (s *Stream) EnqueueMarker() (*Action, error) {
	a := &Action{kind: ActSync, stream: s}
	a.span.Label = "marker"
	return s.rt.enqueue(a, nil, nil)
}

// EnqueueEventWait enqueues a marker that additionally waits for the
// given events from other streams — the cross-stream synchronization
// primitive (hStreams_EnqueueEventWait).
func (s *Stream) EnqueueEventWait(evs ...*Action) (*Action, error) {
	a := &Action{kind: ActSync, stream: s}
	a.span.Label = "event-wait"
	return s.rt.enqueue(a, evs, nil)
}

// Destroy drains the stream and rejects further enqueues
// (hStreams_StreamDestroy). The integer handle and the stream's past
// events remain valid; only new work is refused. Destroy is
// idempotent.
func (s *Stream) Destroy() error {
	s.mu.Lock()
	s.destroyed = true
	s.mu.Unlock()
	return s.Synchronize()
}

// enqueueReplay re-enqueues one checkpointed action with its recorded
// dependence edges (deps/whys parallel slices of predecessor actions
// and edge kinds). The replay flag makes enqueue take the edges as
// prescribed instead of rediscovering them; see checkpoint.go.
func (s *Stream) enqueueReplay(kind ActKind, label string, bytes int64, cost platform.Cost, deps []*Action, whys []trace.DepKind) (*Action, error) {
	a := &Action{kind: kind, stream: s, replay: true}
	a.span.Label = label
	a.span.Bytes = bytes
	a.setCost(cost)
	return s.rt.enqueue(a, deps, whys)
}

// Synchronize blocks the host until every action previously enqueued
// in this stream has completed (hStreams_StreamSynchronize). inflight
// is unordered, so it waits on whatever member it sees and re-checks
// until the window is empty.
func (s *Stream) Synchronize() error {
	for {
		s.mu.Lock()
		var pending *Action
		if len(s.inflight) > 0 {
			pending = s.inflight[0]
		}
		s.mu.Unlock()
		if pending == nil {
			return s.rt.Err()
		}
		s.rt.exec.waitAction(pending)
	}
}
