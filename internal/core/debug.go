package core

import (
	"sort"
	"sync"
	"time"

	"hstreams/internal/fabric"
)

// Live-runtime registry: Init registers, Fini unregisters. The debug
// server enumerates it to serve stream/queue snapshots without being
// handed runtimes explicitly.
var (
	liveMu   sync.Mutex
	liveRuns = make(map[*Runtime]struct{})
)

func registerLive(rt *Runtime) {
	liveMu.Lock()
	liveRuns[rt] = struct{}{}
	liveMu.Unlock()
}

func unregisterLive(rt *Runtime) {
	liveMu.Lock()
	delete(liveRuns, rt)
	liveMu.Unlock()
}

// LiveRuntimes returns every initialized-but-not-finalized runtime in
// the process, ordered by run id (Init order).
func LiveRuntimes() []*Runtime {
	liveMu.Lock()
	out := make([]*Runtime, 0, len(liveRuns))
	for rt := range liveRuns {
		out = append(out, rt)
	}
	liveMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].runID < out[j].runID })
	return out
}

// ActionStatus is a point-in-time view of one incomplete action.
type ActionStatus struct {
	ID      uint64        `json:"id"`
	Kind    string        `json:"kind"`
	Label   string        `json:"label,omitempty"`
	State   string        `json:"state"` // "pending" | "launched"
	Pending int           `json:"pending_deps"`
	Enqueue time.Duration `json:"enqueue"`
	Age     time.Duration `json:"age"`
}

// StreamStatus is a point-in-time view of one stream's queue.
type StreamStatus struct {
	Name      string         `json:"name"`
	Domain    string         `json:"domain"`
	Destroyed bool           `json:"destroyed,omitempty"`
	Depth     int            `json:"depth"`
	Inflight  []ActionStatus `json:"inflight,omitempty"`
}

// RuntimeStatus is a point-in-time view of one runtime: its clock, its
// outstanding-action count, and every stream's incomplete window. The
// debug server serves it as /debug/streams.
type RuntimeStatus struct {
	Run         uint64         `json:"run"`
	Mode        string         `json:"mode"`
	Now         time.Duration  `json:"now"`
	Outstanding int            `json:"outstanding"`
	Finalized   bool           `json:"finalized,omitempty"`
	Err         string         `json:"err,omitempty"`
	Streams     []StreamStatus `json:"streams"`
}

// LinkStats snapshots per-link traffic for the debug server: fabric
// accounting in Real mode; in Sim mode the atomic byte/transfer
// counters (the modeled wire time is not included — the DMA resources
// belong to the single-goroutine engine, and SimLinkBusy reads them
// from the host thread only).
func (rt *Runtime) LinkStats() []fabric.LinkStat {
	if rt.fab != nil {
		return rt.fab.LinkStats()
	}
	se, ok := rt.exec.(*simExec)
	if !ok {
		return nil
	}
	host := rt.domains[0].spec.Name
	out := make([]fabric.LinkStat, 0, 2*(len(rt.domains)-1))
	for i := 1; i < len(rt.domains); i++ {
		name := rt.domains[i].spec.Name
		for dir := 0; dir < 2; dir++ {
			src, dst := host, name
			if dir == 1 {
				src, dst = name, host
			}
			out = append(out, fabric.LinkStat{
				Src:       src,
				Dst:       dst,
				Transfers: se.linkMet[i][dir].xfers.Value(),
				Bytes:     se.linkMet[i][dir].bytes.Value(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// maxInflightStatus bounds the per-stream action detail in a status
// snapshot so a deep queue cannot balloon the debug response.
const maxInflightStatus = 64

// Status snapshots the runtime, taking each stream's lock in turn —
// never more than one at once. It is safe to call from any goroutine
// while the runtime works — in Sim mode "now" is the locked host
// clock, never the engine clock, which only the pumping host goroutine
// may read.
func (rt *Runtime) Status() RuntimeStatus {
	var now time.Duration
	if se, ok := rt.exec.(*simExec); ok {
		se.mu.Lock()
		now = se.hostTime
		se.mu.Unlock()
	} else {
		now = rt.exec.now()
	}
	st := RuntimeStatus{
		Run:         rt.runID,
		Mode:        rt.cfg.Mode.String(),
		Now:         now,
		Outstanding: int(rt.outstanding.Load()),
		Finalized:   rt.finalized.Load(),
	}
	rt.mu.Lock()
	streams := rt.streams
	if rt.firstErr != nil {
		st.Err = rt.firstErr.Error()
	}
	rt.mu.Unlock()
	for _, s := range streams {
		s.mu.Lock()
		ss := StreamStatus{
			Name:      s.name,
			Domain:    s.domain.spec.Name,
			Destroyed: s.destroyed,
			Depth:     len(s.inflight),
		}
		// inflight is unordered (swap retirement); snapshot then sort
		// by id so the report reads in enqueue order.
		snap := append([]*Action(nil), s.inflight...)
		s.mu.Unlock()
		sort.Slice(snap, func(i, j int) bool { return snap[i].span.ID < snap[j].span.ID })
		for _, a := range snap {
			if len(ss.Inflight) == maxInflightStatus {
				break
			}
			state := "pending"
			if a.state.Load() == stateLaunched {
				state = "launched"
			}
			ss.Inflight = append(ss.Inflight, ActionStatus{
				ID:      a.span.ID,
				Kind:    a.kind.String(),
				Label:   a.span.Label,
				State:   state,
				Pending: int(a.npend.Load()),
				Enqueue: a.span.Enqueue,
				Age:     now - a.span.Enqueue,
			})
		}
		st.Streams = append(st.Streams, ss)
	}
	return st
}
