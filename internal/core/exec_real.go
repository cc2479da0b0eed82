package core

import (
	"fmt"
	"sync"
	"time"

	"hstreams/internal/coi"
	"hstreams/internal/fault"
)

// trampolineName is the sink-side symbol all compute actions dispatch
// through on card domains; it decodes operand ranges and calls the
// registered kernel.
const trampolineName = "hs.kernel"

// realExec runs actions for real: kernels execute on per-domain worker
// pools, card-domain computes travel through the COI pipeline of their
// stream, transfers move bytes over the fabric. Computes within one
// stream serialize (they own the stream's cores); transfers use
// per-link-direction DMA serialization, so compute/transfer overlap
// is real.
type realExec struct {
	rt    *Runtime
	epoch time.Time
	// dma[i] serializes the two DMA directions of domain i.
	dma []*[2]sync.Mutex
	// pools[i] runs domain i's actions. The seed spawned a goroutine
	// per action; small-action streams then paid a goroutine start +
	// exit on every launch and could pile up unbounded runnable
	// goroutines. A fixed pool sized to the domain keeps dispatch at
	// one queue push.
	pools []*workerPool
	// scratch recycles the per-compute slices (host operand views,
	// card wire args and COI buffer lists) that the seed allocated on
	// every action.
	scratch sync.Pool
	// res is the resilience state: retry/deadline policies and the
	// per-domain breakers (resilience.go).
	res *resState
}

func newRealExec(rt *Runtime) *realExec {
	re := &realExec{rt: rt, epoch: time.Now()}
	re.dma = make([]*[2]sync.Mutex, len(rt.domains))
	re.pools = make([]*workerPool, len(rt.domains))
	re.res = newResState(rt)
	for i, d := range rt.domains {
		re.dma[i] = &[2]sync.Mutex{}
		re.pools[i] = newWorkerPool(re, poolWorkers(d.spec.Cores()))
	}
	re.scratch.New = func() any { return new(execScratch) }
	return re
}

// poolWorkers sizes a domain's pool: one worker per core (workers
// mostly block on computeMu/DMA mutexes, so matching the core count
// keeps every physical resource feedable) within sane bounds.
func poolWorkers(cores int) int {
	switch {
	case cores < 4:
		return 4
	case cores > 32:
		return 32
	default:
		return cores
	}
}

// workerPool is a fixed set of goroutines draining an unbounded FIFO.
// The queue is deliberately unbounded: workers call Runtime.finish,
// which launches successors back into pools — a bounded channel could
// deadlock with every worker blocked on a full queue.
type workerPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []*Action
	head   int
	closed bool
}

func newWorkerPool(re *realExec, workers int) *workerPool {
	p := &workerPool{}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		go p.work(re)
	}
	return p
}

func (p *workerPool) submit(a *Action) {
	p.mu.Lock()
	p.q = append(p.q, a)
	p.mu.Unlock()
	p.cond.Signal()
}

func (p *workerPool) work(re *realExec) {
	for {
		p.mu.Lock()
		for p.head == len(p.q) && !p.closed {
			p.cond.Wait()
		}
		if p.head == len(p.q) {
			p.mu.Unlock()
			return
		}
		a := p.q[p.head]
		p.q[p.head] = nil
		p.head++
		if p.head == len(p.q) {
			p.q = p.q[:0]
			p.head = 0
		}
		p.mu.Unlock()
		re.run(a)
	}
}

// close releases the workers once the queue drains. Fini synchronizes
// all work first, so nothing new arrives.
func (p *workerPool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// execScratch is the recycled per-compute state.
type execScratch struct {
	ops     [][]byte
	targs   []int64
	coiBufs []*coi.Buffer
	ctx     KernelCtx
}

func (re *realExec) launch(a *Action) { re.pools[a.stream.domain.index].submit(a) }

func (re *realExec) run(a *Action) {
	s := a.stream
	if a.kind == ActSync {
		a.span.Launch = re.now()
		a.span.Finish = a.span.Launch
		re.rt.finish(a, nil)
		return
	}
	if s.domain.IsHost() {
		// Host actions have no fabric or sink process to fail; they
		// bypass the resilience path entirely.
		var err error
		if a.kind == ActCompute {
			s.computeMu.Lock()
			a.span.Launch = re.now()
			err = re.computeHost(a)
			a.span.Finish = re.now()
			s.computeMu.Unlock()
		} else {
			// Host-as-target streams alias instances; optimized away.
			a.span.Launch = re.now()
			a.span.Finish = a.span.Launch
		}
		re.rt.finish(a, err)
		return
	}
	re.rt.finish(a, re.runCardAction(a))
}

// runCardAction executes one card-domain action under the resilience
// machinery: quarantined domains re-route to the host, everything
// else goes through the retry/deadline loop. The inflight counter
// brackets the card-side attempt window for the breaker's drain
// handshake (see resilience.go); a re-routing action must leave the
// window first or the drain would wait on it forever.
func (re *realExec) runCardAction(a *Action) error {
	dr := re.res.dom[a.stream.domain.index]
	if dr.isQuarantined() {
		return re.runRerouted(a, dr)
	}
	dr.inflight.Add(1)
	if dr.isQuarantined() {
		// Raced with the breaker trip: step back out and re-route.
		dr.inflight.Add(-1)
		return re.runRerouted(a, dr)
	}
	err := re.runCard(a, dr)
	dr.inflight.Add(-1)
	if _, ok := err.(*needReroute); ok {
		return re.runRerouted(a, dr)
	}
	return err
}

// runCard is the retry/deadline loop around one card action's
// attempts. The order of checks after a failed attempt matters:
// fatal errors are final, then the deadline (so a doomed action stops
// burning the link), then quarantine (the breaker may have tripped —
// possibly by our own failure — and re-routing beats retrying into a
// dead domain), then the retry budget.
func (re *realExec) runCard(a *Action, dr *domainRes) error {
	rp := re.res.retry
	dl := re.res.deadline
	var t0 time.Duration
	if dl > 0 {
		t0 = re.now()
	}
	for attempt := 0; ; attempt++ {
		err := re.attemptCard(a)
		if err == nil {
			dr.succeed(a)
			return nil
		}
		if !fault.IsTransient(err) {
			return err
		}
		dr.fail()
		if dl > 0 && re.now()-t0 >= dl {
			a.resNote().deadlineHit = true
			dr.deadlines.Inc()
			return fmt.Errorf("%w: %s after %d attempt(s), last error: %v",
				ErrDeadlineExceeded, a.kind, attempt+1, err)
		}
		if dr.isQuarantined() {
			return &needReroute{cause: err}
		}
		if attempt >= rp.Max {
			if rp.Max > 0 {
				// Budget consumed (not merely absent): mark the note so
				// finish emits EvRetriesExhausted off the attempt path.
				a.resNote().exhausted = true
			}
			return err
		}
		wait := rp.wait(a.span.ID, attempt)
		note := a.resNote()
		note.retries++
		note.retryWait += wait
		dr.retries.Inc()
		if wait > 0 {
			time.Sleep(wait)
		}
	}
}

// attemptCard makes one attempt at a card action. Failed attempts
// have no side effects — injection fires before any bytes move or any
// descriptor is sent — so attempts may repeat freely. The launch time
// is stamped once (first attempt) and the finish time after every
// attempt, so the recorded duration spans retries and backoff.
func (re *realExec) attemptCard(a *Action) error {
	s := a.stream
	if a.kind == ActCompute {
		s.computeMu.Lock()
		if !a.started {
			a.span.Launch = re.now()
			a.started = true
		}
		err := re.computeCard(a)
		a.span.Finish = re.now()
		s.computeMu.Unlock()
		return err
	}
	o := a.ops[0]
	cb := o.Buf.inst[s.domain.index]
	dir := 0
	if a.kind == ActXferToSrc {
		dir = 1
	}
	mu := &re.dma[s.domain.index][dir]
	mu.Lock()
	defer mu.Unlock()
	if !a.started {
		a.span.Launch = re.now()
		a.started = true
	}
	var err error
	if a.kind == ActXferToSink {
		_, err = cb.Write(int(o.Off), o.Buf.host[o.Off:o.Off+o.Len])
	} else {
		_, err = cb.Read(int(o.Off), o.Buf.host[o.Off:o.Off+o.Len])
	}
	a.span.Finish = re.now()
	return err
}

// runRerouted executes a card-bound action on the host domain after
// its domain quarantined: computes run against the host instances,
// transfers become no-ops (host-as-target aliasing). Dependence
// analysis already ran against the original domain and is NOT redone —
// the partial order is a property of the program, not of where
// actions execute — so the FIFO-with-overlap semantic is preserved
// (DESIGN.md §6). The first re-routed action performs the quarantine
// drain + dirty-range flush inside awaitFlush.
func (re *realExec) runRerouted(a *Action, dr *domainRes) error {
	if err := dr.awaitFlush(re); err != nil {
		return err
	}
	a.resNote().rerouted = true
	dr.rerouted.Inc()
	s := a.stream
	if a.kind == ActCompute {
		s.computeMu.Lock()
		if !a.started {
			a.span.Launch = re.now()
			a.started = true
		}
		err := re.computeHost(a)
		a.span.Finish = re.now()
		s.computeMu.Unlock()
		return err
	}
	// The host instance is now the action's source AND sink.
	if !a.started {
		a.span.Launch = re.now()
		a.started = true
	}
	a.span.Finish = re.now()
	return nil
}

// computeHost executes a kernel against the host instances — the
// host-as-target path, also used for re-routed card computes. Scratch
// slices are recycled — safe because kernels must not retain their
// KernelCtx.
func (re *realExec) computeHost(a *Action) error {
	sc := re.scratch.Get().(*execScratch)
	defer re.scratch.Put(sc)
	ops := sc.ops[:0]
	for _, o := range a.ops {
		ops = append(ops, o.Buf.host[o.Off:o.Off+o.Len])
	}
	sc.ctx = KernelCtx{Args: a.args, Ops: ops, Threads: a.stream.nCores}
	err := safeCall(a.kernelFn, &sc.ctx)
	for i := range ops {
		ops[i] = nil
	}
	sc.ops, sc.ctx = ops[:0], KernelCtx{}
	return err
}

// computeCard ships one kernel invocation through the stream's COI
// pipeline: [kernelID, threads, nArgs, args…, nOps, (off,len)…] plus
// the operands' COI buffers. Scratch recycling is safe because
// coi.RunFunction serializes args and buffer ids before returning.
func (re *realExec) computeCard(a *Action) error {
	s := a.stream
	sc := re.scratch.Get().(*execScratch)
	defer re.scratch.Put(sc)
	targs := sc.targs[:0]
	targs = append(targs, a.kernelID, int64(s.nCores), int64(len(a.args)))
	targs = append(targs, a.args...)
	targs = append(targs, int64(len(a.ops)))
	coiBufs := sc.coiBufs[:0]
	for _, o := range a.ops {
		targs = append(targs, o.Off, o.Len)
		coiBufs = append(coiBufs, o.Buf.inst[s.domain.index])
	}
	ev, err := s.pipeline.RunFunction(trampolineName, targs, coiBufs...)
	for i := range coiBufs {
		coiBufs[i] = nil
	}
	sc.targs, sc.coiBufs = targs[:0], coiBufs[:0]
	if err != nil {
		return err
	}
	return ev.Wait()
}

// safeCall invokes a kernel, converting panics into errors so one bad
// kernel cannot take the runtime down.
func safeCall(fn Kernel, ctx *KernelCtx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: kernel panic: %v", r)
		}
	}()
	fn(ctx)
	return nil
}

func (re *realExec) waitAction(a *Action) { <-a.Done() }

func (re *realExec) now() time.Duration { return time.Since(re.epoch) }

func (re *realExec) fini() {
	for _, p := range re.pools {
		p.close()
	}
	// Quarantine is one-way for the runtime's lifetime (re-admission is
	// re-Init, per OPERATIONS.md), so teardown is where degraded state
	// formally ends: return the gauges the health rules watch to 0 and
	// journal the clear, letting a /debug/health verdict recover after
	// the run instead of pinning critical forever.
	for _, dr := range re.res.dom {
		if dr.quarantined.Load() {
			dr.quarGauge.Set(0)
			dr.emit(RuntimeEvent{Kind: EvQuarantineCleared, Domain: dr.name})
		}
	}
}

// trampoline is the sink-side entry point registered with every COI
// process; it decodes the wire arguments built in compute.
func (rt *Runtime) trampoline(args []int64, bufs [][]byte) {
	kid, threads, nArgs := args[0], args[1], args[2]
	user := args[3 : 3+nArgs]
	rest := args[3+nArgs:]
	nOps := rest[0]
	ops := make([][]byte, nOps)
	for i := int64(0); i < nOps; i++ {
		off, ln := rest[1+2*i], rest[2+2*i]
		ops[i] = bufs[i][off : off+ln]
	}
	fn := rt.kernelByID(kid)
	if fn == nil {
		panic(fmt.Sprintf("core: sink kernel id %d not registered", kid))
	}
	fn(&KernelCtx{Args: user, Ops: ops, Threads: int(threads)})
}
