package core

import (
	"testing"
	"unsafe"

	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// maxActionSize is the largest Action that stays in the 768-byte
// allocation size class. The flight recorder pins every recent action
// through its embedded span, so a larger Action raises the live heap
// of every traced run.
const maxActionSize = 752

func TestActionSizeBound(t *testing.T) {
	if sz := unsafe.Sizeof(Action{}); sz > maxActionSize {
		t.Fatalf("unsafe.Sizeof(Action{}) = %d B, want <= %d B", sz, maxActionSize)
	}
}

// simComputeAllocs is the exact number of heap allocations of one
// steady-state Sim compute action from enqueue to finish: the Action
// itself. Operands and arguments are copied into the action's inline
// storage, the completion event is the action, successors and ready
// lists live in inline or stack arrays, and the flight-recorder span
// is embedded.
const simComputeAllocs = 1

func TestSimComputeEnqueueFinishAllocs(t *testing.T) {
	rt, err := Init(Config{
		Machine: platform.HSWPlusKNC(0),
		Mode:    ModeSim,
		Metrics: metrics.New(),
		Flight:  trace.NewFlight(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Fini()
	s, err := rt.StreamCreate(rt.Host(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	var bufs [3]*Buf
	for i, name := range []string{"a", "b", "c"} {
		if bufs[i], err = rt.Alloc1D(name, 1<<12); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := bufs[0], bufs[1], bufs[2]
	step := func() {
		act, err := s.EnqueueCompute("tile", []int64{64, 64, 64},
			[]Operand{a.Range(0, 64, In), b.Range(0, 64, In), c.Range(0, 64, InOut)},
			platform.Cost{Kernel: platform.KDGEMM, N: 64, Flops: 2 * 64 * 64 * 64})
		if err != nil {
			t.Fatal(err)
		}
		if err := act.Wait(); err != nil {
			t.Fatal(err)
		}
		// The timeline recorder grows without bound (its removal is a
		// separate change); keep its capacity steady so only the
		// action path is counted.
		rt.Trace().Reset()
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if got := testing.AllocsPerRun(1000, step); got != simComputeAllocs {
		t.Fatalf("Sim compute enqueue→finish allocates %v times per action, want exactly %d", got, simComputeAllocs)
	}
}
