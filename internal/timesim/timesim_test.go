package timesim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*time.Microsecond, func() { got = append(got, 3) })
	e.At(10*time.Microsecond, func() { got = append(got, 1) })
	e.At(20*time.Microsecond, func() { got = append(got, 2) })
	e.Drain()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Microsecond {
		t.Fatalf("Now = %v, want 30µs", e.Now())
	}
}

func TestEngineTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	e.Drain()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestEngineEventsScheduleEvents(t *testing.T) {
	e := NewEngine()
	var fired int
	var chain func()
	chain = func() {
		fired++
		if fired < 5 {
			e.After(time.Second, chain)
		}
	}
	e.After(time.Second, chain)
	end := e.Drain()
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if end != 5*time.Second {
		t.Fatalf("end = %v, want 5s", end)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(time.Second, func() {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(time.Millisecond, func() {})
}

func TestEngineAfterNegativePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("After with negative duration did not panic")
		}
	}()
	e.After(-time.Second, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var n int
	for i := 1; i <= 10; i++ {
		e.At(time.Duration(i)*time.Millisecond, func() { n++ })
	}
	ok := e.RunUntil(func() bool { return n >= 4 })
	if !ok || n != 4 {
		t.Fatalf("RunUntil stopped at n=%d ok=%v, want n=4 ok=true", n, ok)
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6", e.Pending())
	}
	if e.RunUntil(func() bool { return n >= 100 }) {
		t.Fatal("RunUntil reported success for unreachable predicate")
	}
	if n != 10 {
		t.Fatalf("after drain n = %d, want 10", n)
	}
}

func TestRunUntilImmediatePredicateFiresNothing(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(time.Second, func() { fired = true })
	if !e.RunUntil(func() bool { return true }) {
		t.Fatal("RunUntil with true predicate returned false")
	}
	if fired {
		t.Fatal("RunUntil fired an event despite satisfied predicate")
	}
}

func TestResourceSerializes(t *testing.T) {
	r := NewResource("slot")
	s1, e1 := r.Reserve(0, 10*time.Millisecond)
	s2, e2 := r.Reserve(0, 5*time.Millisecond)
	if s1 != 0 || e1 != 10*time.Millisecond {
		t.Fatalf("first reservation [%v,%v), want [0,10ms)", s1, e1)
	}
	if s2 != 10*time.Millisecond || e2 != 15*time.Millisecond {
		t.Fatalf("second reservation [%v,%v), want [10ms,15ms)", s2, e2)
	}
	if r.Busy() != 15*time.Millisecond {
		t.Fatalf("Busy = %v, want 15ms", r.Busy())
	}
	if r.Reservations() != 2 {
		t.Fatalf("Reservations = %d, want 2", r.Reservations())
	}
}

func TestResourceRespectsReadyTime(t *testing.T) {
	r := NewResource("slot")
	r.Reserve(0, time.Millisecond)
	s, e := r.Reserve(10*time.Millisecond, time.Millisecond)
	if s != 10*time.Millisecond || e != 11*time.Millisecond {
		t.Fatalf("reservation [%v,%v), want [10ms,11ms)", s, e)
	}
}

func TestResourceUtilization(t *testing.T) {
	r := NewResource("slot")
	r.Reserve(0, 30*time.Millisecond)
	if got := r.Utilization(60 * time.Millisecond); got != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", got)
	}
	if got := r.Utilization(0); got != 0 {
		t.Fatalf("Utilization(0) = %v, want 0", got)
	}
}

func TestPoolPicksEarliestSlot(t *testing.T) {
	p := NewPool("workers", 2)
	slot0, _, _ := p.Reserve(0, 10*time.Millisecond)
	slot1, _, _ := p.Reserve(0, 2*time.Millisecond)
	if slot0 == slot1 {
		t.Fatalf("both reservations on slot %d, want distinct slots", slot0)
	}
	// Slot that ran the 2 ms job frees first and must win the next one.
	slot2, start, _ := p.Reserve(0, time.Millisecond)
	if slot2 != slot1 {
		t.Fatalf("third reservation on slot %d, want %d", slot2, slot1)
	}
	if start != 2*time.Millisecond {
		t.Fatalf("third start = %v, want 2ms", start)
	}
}

func TestPoolSingleSlotMatchesResource(t *testing.T) {
	p := NewPool("one", 1)
	r := NewResource("one")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		ready := time.Duration(rng.Intn(50)) * time.Millisecond
		dur := time.Duration(1+rng.Intn(20)) * time.Millisecond
		_, ps, pe := p.Reserve(ready, dur)
		rs, re := r.Reserve(ready, dur)
		if ps != rs || pe != re {
			t.Fatalf("pool [%v,%v) != resource [%v,%v)", ps, pe, rs, re)
		}
	}
}

func TestNewPoolRejectsZeroSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0) did not panic")
		}
	}()
	NewPool("bad", 0)
}

// Property: reservations on a resource never overlap and never start
// before their ready time.
func TestResourceReservationsNeverOverlap(t *testing.T) {
	f := func(seeds []uint8) bool {
		r := NewResource("p")
		var prevEnd time.Duration
		for _, s := range seeds {
			ready := time.Duration(s%16) * time.Millisecond
			dur := time.Duration(s%7+1) * time.Millisecond
			start, end := r.Reserve(ready, dur)
			if start < ready || start < prevEnd || end != start+dur {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: pool makespan for identical jobs matches the analytic
// bound ceil(n/k)*dur when all jobs are ready at time zero.
func TestPoolMakespanBound(t *testing.T) {
	f := func(nJobs, kSlots uint8) bool {
		n := int(nJobs%32) + 1
		k := int(kSlots%8) + 1
		p := NewPool("w", k)
		dur := 3 * time.Millisecond
		var makespan time.Duration
		for i := 0; i < n; i++ {
			_, _, end := p.Reserve(0, dur)
			if end > makespan {
				makespan = end
			}
		}
		want := time.Duration((n+k-1)/k) * dur
		return makespan == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine fires events in nondecreasing time order no
// matter the insertion order.
func TestEngineMonotoneClock(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		var fireTimes []time.Duration
		for _, off := range offsets {
			at := time.Duration(off) * time.Microsecond
			e.At(at, func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Drain()
		if !sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] }) {
			return false
		}
		return len(fireTimes) == len(offsets)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPostClampsPastEvents(t *testing.T) {
	e := NewEngine()
	e.At(10*time.Millisecond, func() {})
	e.Step()
	var firedAt time.Duration
	e.Post(2*time.Millisecond, Func(func() { firedAt = e.Now() })) // in the past
	e.Step()
	if firedAt != 10*time.Millisecond {
		t.Fatalf("past Post fired at %v, want clamped to 10ms", firedAt)
	}
	// Future Post behaves like At.
	e.Post(20*time.Millisecond, Func(func() { firedAt = e.Now() }))
	e.Drain()
	if firedAt != 20*time.Millisecond {
		t.Fatalf("future Post fired at %v, want 20ms", firedAt)
	}
}

// recorder is a Handler that logs its tag and the firing time, the
// way the Sim executor posts an action as its own completion event.
type recorder struct {
	e    *Engine
	tag  int
	log  *[]fired
	then func()
}

type fired struct {
	tag int
	at  time.Duration
}

func (r *recorder) Fire() {
	*r.log = append(*r.log, fired{r.tag, r.e.Now()})
	if r.then != nil {
		r.then()
	}
}

// Property: whatever mix of handlers, plain functions, ties and
// clamped past posts is scheduled — including events posted while
// others fire — the engine fires them in exactly the order of a
// stable sort on (effective time, post order). Same-instant events
// stay FIFO; the Sim executor's schedules (and the modeled rates the
// paper figures pin) depend on that order.
func TestEngineOrderMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		type posted struct {
			tag int
			at  time.Duration // effective (clamped) time
		}
		var ref []posted
		var log []fired
		next := 0
		var post func()
		post = func() {
			tag := next
			next++
			// Few distinct instants so ties are common; some posts land
			// in the past of the current clock and must clamp to now.
			at := time.Duration(rng.Intn(8)) * time.Millisecond
			eff := at
			if eff < e.Now() {
				eff = e.Now()
			}
			ref = append(ref, posted{tag, eff})
			r := &recorder{e: e, tag: tag, log: &log}
			if next < 400 && rng.Intn(3) == 0 {
				r.then = post // a firing event posts another
			}
			if rng.Intn(2) == 0 {
				e.Post(at, r)
			} else if at >= e.Now() {
				e.At(at, r.Fire)
			} else {
				e.Post(at, Func(r.Fire))
			}
		}
		for i := 0; i < 100; i++ {
			post()
		}
		e.Drain()
		// Reference: events fire in (effective time, post order), but
		// an event posted by a firing event can only fire after its
		// poster; that holds here because clamping puts it at or after
		// the current instant and its post order is later than every
		// event already fired.
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].at < ref[j].at })
		if len(log) != len(ref) {
			t.Fatalf("seed %d: fired %d events, posted %d", seed, len(log), len(ref))
		}
		for i := range ref {
			if log[i].tag != ref[i].tag || log[i].at != ref[i].at {
				t.Fatalf("seed %d: event %d fired as %+v, reference %+v", seed, i, log[i], ref[i])
			}
		}
		if e.Pending() != 0 || e.Fired() != uint64(len(ref)) {
			t.Fatalf("seed %d: pending %d fired %d after drain", seed, e.Pending(), e.Fired())
		}
	}
}

func TestEngineStepReleasesHandler(t *testing.T) {
	e := NewEngine()
	e.Post(time.Millisecond, Func(func() {}))
	e.Post(2*time.Millisecond, Func(func() {}))
	e.Step()
	// The vacated tail slot must not keep the fired handler reachable.
	if tail := e.events[:cap(e.events)][len(e.events)]; tail.h != nil {
		t.Fatalf("fired event still referenced from the queue's backing array: %+v", tail)
	}
}

type nopHandler struct{ n int }

func (h *nopHandler) Fire() { h.n++ }

// Posting a pointer handler and firing it allocates nothing once the
// queue's backing array has grown: the per-action cost the Sim
// executor pays for its completion events.
func TestPostStepAllocationFree(t *testing.T) {
	e := NewEngine()
	h := &nopHandler{}
	for i := 0; i < 64; i++ {
		e.Post(time.Duration(i), h)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Post(e.Now()+time.Microsecond, h)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("Post+Step allocated %v times per event, want 0", allocs)
	}
}
