// Package timesim provides a deterministic discrete-event simulation
// engine with a virtual clock.
//
// The hStreams runtime can execute either for real (goroutines, real
// kernels, wall-clock time) or on this engine (virtual time, durations
// supplied by a cost model). The engine is what lets the benchmark
// harness replay the paper's multi-coprocessor experiments — 30 000²
// matrices across a host and two simulated Knights Corner cards — in
// milliseconds of wall time while preserving the schedule structure
// (dependences, resource contention, compute/transfer overlap).
//
// The engine is strictly deterministic: events scheduled for the same
// virtual instant fire in the order they were scheduled.
package timesim

import (
	"fmt"
	"time"
)

// Handler is what an event does when it fires. The Sim executor posts
// each action as its own completion handler, so scheduling an event
// allocates nothing beyond the queue slot; plain functions go through
// Func.
type Handler interface {
	Fire()
}

// Func adapts a plain function to Handler. A func value is a single
// pointer, so the conversion does not allocate.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Engine is a virtual clock with an event queue. It is not safe for
// concurrent use; simulated runs are single-goroutine by design so that
// results are reproducible.
type Engine struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	fired  uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired reports how many events have been processed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled but not yet fired.
func (e *Engine) Pending() int { return len(e.events) }

// At schedules fn to run at virtual time t. Scheduling in the past
// (t < Now) panics: it would mean a causality violation in the caller,
// which is always a bug.
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("timesim: scheduling event at %v before now %v", t, e.now))
	}
	e.Post(t, Func(fn))
}

// After schedules fn to run d from now. Negative d panics.
func (e *Engine) After(d time.Duration, fn func()) {
	e.At(e.now+d, fn)
}

// Post schedules h to fire at time t, clamping past timestamps to now
// instead of panicking. Callers that keep exact event times in their
// own bookkeeping (and only need the engine for firing order) use this
// so the clock can be pumped ahead of lazily-scheduled work. Post is
// the engine's only scheduling path; At and After check causality and
// then post through it.
func (e *Engine) Post(t time.Duration, h Handler) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events = append(e.events, event{at: t, seq: e.seq, h: h})
	e.events.up(len(e.events) - 1)
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was fired.
func (e *Engine) Step() bool {
	n := len(e.events)
	if n == 0 {
		return false
	}
	ev := e.events[0]
	e.events[0] = e.events[n-1]
	e.events[n-1] = event{} // the backing array must not pin the handler
	e.events = e.events[:n-1]
	e.events.down(0)
	e.now = ev.at
	e.fired++
	ev.h.Fire()
	return true
}

// RunUntil fires events until done() reports true or the queue drains.
// It returns true if done() was satisfied. Note that done is checked
// before each step, so a run with an immediately-true predicate fires
// nothing.
func (e *Engine) RunUntil(done func() bool) bool {
	for !done() {
		if !e.Step() {
			return done()
		}
	}
	return true
}

// Drain fires all pending events (including ones scheduled by fired
// events) and returns the final virtual time.
func (e *Engine) Drain() time.Duration {
	for e.Step() {
	}
	return e.now
}

type event struct {
	at  time.Duration
	seq uint64
	h   Handler
}

// eventHeap is a binary min-heap ordered by (at, seq). seq is unique
// and increasing, so events posted for the same instant fire in the
// order they were posted.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
