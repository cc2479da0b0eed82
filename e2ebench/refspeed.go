package main

import (
	"math"
	"runtime"
	"time"
)

// The host this benchmark is sized for is a few vCPUs of a shared
// machine whose speed moves by up to a factor of two over seconds to
// minutes, with the same instructions taking longer, so wall-clock and
// CPU times of unchanged code drift far more than any useful bound.
// The benchmark therefore times a fixed reference task between every
// two rounds and reports each round's times at the reference speed.
//
// The reference task is code of the benchmark's own that no change to
// the program can reach: it builds and walks a linked map of small
// objects, which exercises the allocator and the collector, the work
// every workload spends much of its time on. Timed against the other
// candidates tried (a register-only integer loop and a dependent-load
// chase through a table in memory, alone and mixed), it was the one
// whose drift followed every workload's.
const (
	refNodes = 200_000
	// refNominal is about what the task takes on the 2-vCPU Xeon VM
	// the benchmark was sized on (Go 1.24). It fixes the level of the
	// reported times, not their spread.
	refNominal = 65 * time.Millisecond
)

// refSample runs the reference task once, on a collected heap, and
// returns how long it took.
func refSample() time.Duration {
	runtime.GC()
	start := time.Now()
	type node struct {
		next *node
		key  int
		pad  [4]int
	}
	m := make(map[int]*node)
	var head *node
	for i := 0; i < refNodes; i++ {
		head = &node{next: head, key: i}
		m[i*7919%1000003] = head
	}
	walked := 0
	for n := head; n != nil; n = n.next {
		walked += n.key
	}
	d := time.Since(start)
	if walked != refNodes*(refNodes-1)/2 || len(m) != refNodes {
		panic("e2ebench: reference task miscounted")
	}
	return d
}

// refSpeed is a sample's speed: 1 at nominal, below 1 when the host
// runs slower.
func refSpeed(d time.Duration) float64 {
	return float64(refNominal) / float64(d)
}

// roundScale is the factor that puts a round's times at the reference
// speed: the geometric mean of the speeds of the reference samples
// taken just before and just after the round. A time is multiplied by
// it, a rate divided.
func roundScale(before, after time.Duration) float64 {
	return math.Sqrt(refSpeed(before) * refSpeed(after))
}
