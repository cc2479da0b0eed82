package core

// events.go is the runtime's lifecycle-event emission: a thin typed
// hook the health layer's structured journal (internal/health) hangs
// off. Events fire only on failure-path transitions — breaker trips,
// quarantine flushes and clears, retry-budget exhaustion, deadline
// hits — so the fault-free hot path pays nothing beyond the existing
// single resNote nil check at finish (and nothing at all when no hook
// is installed).

import (
	"fmt"
	"sync/atomic"
)

// RuntimeEventKind classifies a runtime lifecycle event.
type RuntimeEventKind int

const (
	// EvBreakerTrip fires exactly once per domain when its breaker
	// trips (Threshold consecutive transient failures).
	EvBreakerTrip RuntimeEventKind = iota
	// EvQuarantineFlush fires when a quarantined domain's card-dirty
	// ranges finish flushing back to the host instances; Err carries
	// the flush error when data could not be rescued.
	EvQuarantineFlush
	// EvQuarantineCleared fires at Fini for each still-quarantined
	// domain: quarantine is one-way for a runtime's lifetime
	// (re-admission is re-Init, per OPERATIONS.md), so teardown is
	// where the degraded state formally ends.
	EvQuarantineCleared
	// EvRetriesExhausted fires when an action fails after consuming
	// its full RetryPolicy.Max re-attempt budget.
	EvRetriesExhausted
	// EvDeadlineHit fires when an action exceeds Config.Deadline.
	EvDeadlineHit
)

// String labels the event kind for journals and logs.
func (k RuntimeEventKind) String() string {
	switch k {
	case EvBreakerTrip:
		return "breaker-trip"
	case EvQuarantineFlush:
		return "quarantine-flush"
	case EvQuarantineCleared:
		return "quarantine-cleared"
	case EvRetriesExhausted:
		return "retries-exhausted"
	case EvDeadlineHit:
		return "deadline-hit"
	default:
		return fmt.Sprintf("RuntimeEventKind(%d)", int(k))
	}
}

// RuntimeEvent is one runtime lifecycle event, delivered synchronously
// on the goroutine where the transition happened. Action, when
// nonzero, is the id the flight recorder uses as trace.Span.ID, so a
// journal entry correlates to its causal span the way exemplars do.
type RuntimeEvent struct {
	Kind   RuntimeEventKind
	Domain string
	Stream string
	Action uint64
	Err    string
}

// defaultEventHook is the process-wide fallback hook, mirroring
// metrics.Default()/trace.DefaultFlight(): runtimes whose Config left
// OnEvent nil deliver here. Stored behind a pointer so installation is
// one atomic store and the no-hook probe one atomic load.
var defaultEventHook atomic.Pointer[func(RuntimeEvent)]

// SetDefaultEventHook installs (or, with nil, removes) the
// process-wide lifecycle-event hook used by runtimes whose
// Config.OnEvent is nil. The CLIs point it at the health journal
// (health.Journal.CoreEvent). The hook must be safe for concurrent
// calls — events fire from executor worker goroutines.
func SetDefaultEventHook(fn func(RuntimeEvent)) {
	if fn == nil {
		defaultEventHook.Store(nil)
		return
	}
	defaultEventHook.Store(&fn)
}

// emitEvent delivers one lifecycle event to the runtime's hook, or the
// process default when the runtime has none. Called only on failure
// paths.
func (rt *Runtime) emitEvent(ev RuntimeEvent) {
	if fn := rt.cfg.OnEvent; fn != nil {
		fn(ev)
		return
	}
	if p := defaultEventHook.Load(); p != nil {
		(*p)(ev)
	}
}

// emitResEvents turns an action's resilience note into lifecycle
// events at finish. Per-action terminal outcomes (deadline hit,
// retry budget exhausted) are journaled here rather than inside the
// retry loop so emission stays off the attempt path and each action
// yields at most one event per outcome; domain-level transitions
// (breaker trip, quarantine flush/clear) emit at their own sites in
// resilience.go / exec_real.go. Plain retries and re-routes are
// deliberately NOT journaled — a quarantined run re-routes thousands
// of actions, which would flood the ring; their volume is visible in
// hstreams_retries_total / hstreams_rerouted_total instead.
func (rt *Runtime) emitResEvents(a *Action, r *resNote, err error) {
	if !r.deadlineHit && !r.exhausted {
		return
	}
	ev := RuntimeEvent{
		Domain: a.stream.domain.spec.Name,
		Stream: a.stream.name,
		Action: a.span.ID,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	if r.deadlineHit {
		ev.Kind = EvDeadlineHit
		rt.emitEvent(ev)
	}
	if r.exhausted {
		ev.Kind = EvRetriesExhausted
		rt.emitEvent(ev)
	}
}
