package main

import (
	"math"
	"testing"
	"time"

	"hstreams/internal/trace"
)

func TestSelfTime(t *testing.T) {
	base := time.Now()
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	parent := iv(0, 100)
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Microsecond},
		{"one child", []interval{iv(10, 30)}, 80 * time.Microsecond},
		// [10,20] and [15,30] overlap and count once; [90,120] and
		// [-5,2] are clipped to the parent; [200,300] lies outside.
		{"overlap and clipping", []interval{iv(90, 120), iv(15, 30), iv(10, 20), iv(-5, 2), iv(200, 300)}, 68 * time.Microsecond},
		{"child covers parent", []interval{iv(-10, 110)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestReadClockBracketsOffset(t *testing.T) {
	epoch := time.Now().Add(-3 * time.Second)
	clk := readClock(func() time.Duration { return time.Since(epoch) })
	if off := clk.epoch.Sub(epoch); off < -clk.err || off > clk.err {
		t.Errorf("epoch off by %v, beyond the stated error ±%v", off, clk.err)
	}
}

// TestJoinRequests builds a synthetic request whose runtime clock runs
// a known offset behind the wall clock, and checks the join recovers
// every stage and reports impossible orders and missing spans.
func TestJoinRequests(t *testing.T) {
	wall0 := time.Now()
	clk := clockMap{epoch: wall0.Add(-time.Hour), err: 100 * time.Nanosecond}
	at := func(us int) time.Time { return wall0.Add(time.Duration(us) * time.Microsecond) }
	rtAt := func(us int) time.Duration { return time.Hour + time.Duration(us)*time.Microsecond }

	good := reqTrace{
		action: 7,
		client: interval{at(0), at(100)},
		handle: interval{at(30), at(80)},
		kernel: interval{at(50), at(60)},
	}
	span := trace.Span{ID: 7, Enqueue: rtAt(40), Ready: rtAt(42), Launch: rtAt(47), Finish: rtAt(62)}
	// The kernel of action 8 runs before its action launches.
	bad := good
	bad.action = 8
	bad.kernel = interval{at(44), at(46)}
	badSpan := span
	badSpan.ID = 8
	missing := good
	missing.action = 9

	out, unmatched, disordered := joinRequests([]reqTrace{good, bad, missing}, []trace.Span{span, badSpan}, clk)
	if unmatched != 1 || disordered != 1 || len(out) != 2 {
		t.Fatalf("unmatched=%d disordered=%d joined=%d, want 1 1 2", unmatched, disordered, len(out))
	}
	want := [numStages]float64{30, 10, 2, 5, 5, 10, 18, 20}
	for i, w := range want {
		if math.Abs(out[0].st[i]-w) > 1e-6 {
			t.Errorf("%s = %v µs, want %v", stageNames[i], out[0].st[i], w)
		}
	}
	if out[0].hop != 50 || out[0].total != 100 {
		t.Errorf("hop=%v total=%v, want 50 100", out[0].hop, out[0].total)
	}
}
