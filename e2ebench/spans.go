package main

import (
	"fmt"
	"sort"
	"time"

	"hstreams/internal/trace"
)

// interval is one timed span recorded by the benchmark around a call
// into a layer.
type interval struct {
	start, end time.Time
}

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// selfTime returns the parent's duration minus the part of it that
// the union of its children covers. Children are clipped to the
// parent, and overlapping children count once.
func selfTime(parent interval, children []interval) time.Duration {
	var clipped []interval
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	covered := time.Duration(0)
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.dur()
	}
	return parent.dur() - covered
}

// clockMap places runtime-clock readings (Runtime.Now, the clock of
// flight-recorder spans) on the wall clock the benchmark's own spans
// use. In Real mode both clocks are monotonic and differ by a
// constant, which readClock measures once per runtime.
type clockMap struct {
	// epoch is the wall time at which the runtime clock read zero.
	epoch time.Time
	// err bounds the error of epoch: half the width of the
	// time.Now bracket around the runtime-clock read it came from.
	err time.Duration
}

// readClock brackets rtNow between two wall-clock reads a few times
// and keeps the tightest bracket.
func readClock(rtNow func() time.Duration) clockMap {
	var best clockMap
	for i := 0; i < 8; i++ {
		t0 := time.Now()
		r := rtNow()
		t1 := time.Now()
		half := t1.Sub(t0) / 2
		if i == 0 || half < best.err {
			best = clockMap{epoch: t0.Add(half).Add(-r), err: half}
		}
	}
	return best
}

// wall converts a runtime-clock reading to wall time.
func (c clockMap) wall(d time.Duration) time.Time { return c.epoch.Add(d) }

// reqTrace is the benchmark's record of one serve-http request: the
// client span, the span of the server's handler, and the span of the
// kernel body, tied to the action id the response carried.
type reqTrace struct {
	action uint64
	client interval
	handle interval
	kernel interval
}

// The stages that tile one request, in order. Together they cover
// the client span with no gap and no overlap.
const (
	stHopReq       = iota // client send → handler entry
	stAdmit               // handler entry → action enqueued
	stDepWait             // enqueued → dependences resolved
	stLaunchWait          // ready → execution started
	stExecOverhead        // execution minus the kernel body
	stKernel              // kernel body
	stReply               // action finished → handler return
	stHopReply            // handler return → client has the reply
	numStages
)

// stageNames labels the stages for reports, in tiling order.
var stageNames = [numStages]string{
	"http.hop(request)", "serve.admit", "core.dep_wait", "core.launch_wait",
	"core.exec_overhead", "kernels.run", "serve.reply", "http.hop(reply)",
}

// reqStages is one request cut into stages, in microseconds.
type reqStages struct {
	st    [numStages]float64
	total float64
	// hop is the client span's self time: the client span minus the
	// handler span, both directions of the HTTP hop together.
	hop float64
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// joinRequests ties each request to its action's flight-recorder span
// by action id and cuts it into stages. A stage that reads negative by
// more than twice the clock error means the recorded order is
// impossible; such requests are counted in disordered and still
// returned. Requests whose span is missing are counted in unmatched.
func joinRequests(reqs []reqTrace, spans []trace.Span, clk clockMap) (out []reqStages, unmatched, disordered int) {
	byID := make(map[uint64]*trace.Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	tol := us(2 * clk.err)
	for _, r := range reqs {
		sp, ok := byID[r.action]
		if !ok || r.action == 0 {
			unmatched++
			continue
		}
		launch, finish := clk.wall(sp.Launch), clk.wall(sp.Finish)
		exec := interval{launch, finish}
		var s reqStages
		s.st[stHopReq] = us(r.handle.start.Sub(r.client.start))
		s.st[stAdmit] = us(clk.wall(sp.Enqueue).Sub(r.handle.start))
		s.st[stDepWait] = us(sp.Ready - sp.Enqueue)
		s.st[stLaunchWait] = us(sp.Launch - sp.Ready)
		s.st[stExecOverhead] = us(selfTime(exec, []interval{r.kernel}))
		s.st[stKernel] = us(r.kernel.dur())
		s.st[stReply] = us(r.handle.end.Sub(finish))
		s.st[stHopReply] = us(r.client.end.Sub(r.handle.end))
		s.total = us(r.client.dur())
		s.hop = us(selfTime(r.client, []interval{r.handle}))
		bad := false
		for _, v := range s.st {
			bad = bad || v < -tol
		}
		// The kernel must run inside its action's execution span.
		bad = bad || us(r.kernel.start.Sub(launch)) < -tol || us(finish.Sub(r.kernel.end)) < -tol
		if bad {
			disordered++
		}
		out = append(out, s)
	}
	return out, unmatched, disordered
}

// formatStageMeans renders the per-request stage means for the run
// log beside the mean client request time. The stages are differences
// of adjacent timestamps, so their means add up to the request mean by
// construction; what checks the clock mapping is joinRequests, which
// rejects a negative stage or a kernel outside its action's execution.
func formatStageMeans(rs []reqStages) string {
	var means [numStages]float64
	total := 0.0
	for _, r := range rs {
		for i, v := range r.st {
			means[i] += v
		}
		total += r.total
	}
	s := "stage means (µs): "
	for i, m := range means {
		s += fmt.Sprintf("%s=%.2f ", stageNames[i], m/float64(len(rs)))
	}
	return s + fmt.Sprintf("request=%.2f", total/float64(len(rs)))
}
