package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// CheckpointVersion is the current checkpoint file format version.
// DecodeCheckpoint rejects files written by a different version, so a
// format change can never be silently misread as an empty or mangled
// DAG.
const CheckpointVersion = 1

// Checkpoint/replay errors.
var (
	// ErrCheckpointVersion marks a checkpoint whose version field does
	// not match CheckpointVersion.
	ErrCheckpointVersion = errors.New("core: checkpoint version mismatch")
	// ErrCheckpointEvicted marks a run whose spans were partially
	// overwritten in the flight-recorder ring (or whose runtime
	// geometry aged out of the process registry) — the DAG cannot be
	// reconstructed completely, and a partial checkpoint would replay
	// as a different schedule.
	ErrCheckpointEvicted = errors.New("core: run incomplete in flight recorder")
	// ErrReplayDiverged marks a replay whose executed DAG differs from
	// the checkpointed one — an edge present on one side only, or a
	// mismatched edge kind.
	ErrReplayDiverged = errors.New("core: replayed DAG diverged from checkpoint")
	// ErrCheckpointInvalid marks a structurally broken checkpoint
	// (stream or dependence indices out of range).
	ErrCheckpointInvalid = errors.New("core: invalid checkpoint")
)

// CkptStream records one stream's sink binding so replay can recreate
// the identical stream topology.
type CkptStream struct {
	// Name is the runtime-assigned stream name ("<domain>.s<id>");
	// replay asserts the recreated stream gets the same one.
	Name string `json:"name"`
	// Domain is the sink domain's discovery index (0 = host).
	Domain int `json:"domain"`
	// FirstCore and NCores are the sink core range.
	FirstCore int `json:"first_core"`
	NCores    int `json:"n_cores"`
}

// CkptDep is one recorded dependence edge: the predecessor's index in
// Checkpoint.Actions and the edge kind ("fifo", "sync", "event").
type CkptDep struct {
	Pred int    `json:"pred"`
	Why  string `json:"why"`
}

// CkptAction is one checkpointed action: everything replay needs to
// re-enqueue it with identical Sim timing and the exact dependence
// edges the original scheduler discovered.
type CkptAction struct {
	// Kind is "compute", "xfer_to_sink", "xfer_to_src" or "sync".
	Kind string `json:"kind"`
	// Stream indexes Checkpoint.Streams.
	Stream int `json:"stream"`
	// Label is the trace label (kernel name, transfer description).
	Label string `json:"label,omitempty"`
	// Bytes is the transfer payload size (transfers only).
	Bytes int64 `json:"bytes,omitempty"`
	// Cost is the platform cost descriptor the action was enqueued
	// with; it fully determines the Sim-mode duration.
	Cost platform.Cost `json:"cost"`
	// Deps are the recorded causal in-edges.
	Deps []CkptDep `json:"deps,omitempty"`
}

// Checkpoint is a completed run's serialized DAG: the machine, the
// stream topology, and every action with its dependence edges, in
// enqueue order. Encode/DecodeCheckpoint round-trip it through a
// versioned JSON file, and Replay re-executes it in Sim mode asserting
// the rebuilt DAG is edge-for-edge identical.
type Checkpoint struct {
	// Version is the file format version (CheckpointVersion).
	Version int `json:"version"`
	// Mode labels the execution mode of the original run ("sim" or
	// "real") — informational; replay always runs in Sim mode.
	Mode string `json:"mode"`
	// Run is the original runtime's process-unique id.
	Run uint64 `json:"run"`
	// Machine is the platform the run executed on.
	Machine *platform.Machine `json:"machine"`
	// SourceOverhead is the original Config.SourceOverhead.
	SourceOverhead time.Duration `json:"source_overhead_nanos"`
	// Streams is the stream topology in creation order.
	Streams []CkptStream `json:"streams"`
	// Actions is the executed DAG in enqueue (id) order; action i had
	// id i+1 in the original run.
	Actions []CkptAction `json:"actions"`
}

// Action kind tokens used in checkpoint files (stable, unlike
// ActKind.String's arrow glyphs).
const (
	ckptKindCompute    = "compute"
	ckptKindXferToSink = "xfer_to_sink"
	ckptKindXferToSrc  = "xfer_to_src"
	ckptKindSync       = "sync"
)

// runGeometry is the per-runtime configuration the flight recorder
// does not carry: spans name streams and domains but not core ranges,
// machines or enqueue overheads. Recorded at Init/StreamCreateOn into
// a process-wide registry so a checkpoint can be cut from the flight
// recorder after the runtime is gone (hsbench checkpoints after its
// figures have Fini'd their runtimes).
type runGeometry struct {
	machine        *platform.Machine
	mode           Mode
	sourceOverhead time.Duration
	streams        []CkptStream
}

var (
	geomMu    sync.Mutex
	geomByRun = map[uint64]*runGeometry{}
)

// geomCap bounds the geometry registry; harnesses that create many
// runtimes (benchmarks loop over hundreds) must not leak machines.
// Eviction drops the lowest run id — checkpoints are cut from recent
// runs.
const geomCap = 256

// recordRunGeom registers a new runtime's geometry. Called by Init.
func recordRunGeom(rt *Runtime) {
	geomMu.Lock()
	defer geomMu.Unlock()
	if len(geomByRun) >= geomCap {
		lowest := uint64(0)
		first := true
		for id := range geomByRun {
			if first || id < lowest {
				lowest, first = id, false
			}
		}
		delete(geomByRun, lowest)
	}
	geomByRun[rt.runID] = &runGeometry{
		machine:        rt.machine,
		mode:           rt.cfg.Mode,
		sourceOverhead: rt.cfg.SourceOverhead,
	}
}

// recordStreamGeom appends one stream's binding to its runtime's
// geometry. Called by StreamCreateOn in creation order, which matches
// the stream id.
func recordStreamGeom(rt *Runtime, s *Stream) {
	geomMu.Lock()
	defer geomMu.Unlock()
	g, ok := geomByRun[rt.runID]
	if !ok {
		return // evicted; CheckpointRun will report it
	}
	g.streams = append(g.streams, CkptStream{
		Name:      s.name,
		Domain:    s.domain.index,
		FirstCore: s.firstCore,
		NCores:    s.nCores,
	})
}

// CheckpointRun cuts a checkpoint for one completed run from a flight
// recorder. The run must be fully retained: if the ring overwrote any
// of its spans, or the runtime's geometry aged out of the process
// registry, it returns ErrCheckpointEvicted — a partial DAG would
// replay as a different schedule.
func CheckpointRun(flight *trace.FlightRecorder, run uint64) (*Checkpoint, error) {
	spans := trace.FilterRun(flight.Snapshot(), run)
	if len(spans) == 0 {
		return nil, fmt.Errorf("%w: run %d has no spans", ErrCheckpointEvicted, run)
	}
	geomMu.Lock()
	g, ok := geomByRun[run]
	geomMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: run %d geometry unknown", ErrCheckpointEvicted, run)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	// Action ids are assigned 1..n in enqueue order; a gap or offset
	// means the ring evicted part of the run.
	for i := range spans {
		if spans[i].ID != uint64(i+1) {
			return nil, fmt.Errorf("%w: run %d spans %d..%d retained (want 1..%d)",
				ErrCheckpointEvicted, run, spans[0].ID, spans[len(spans)-1].ID, spans[len(spans)-1].ID)
		}
	}
	streamIdx := make(map[string]int, len(g.streams))
	for i, cs := range g.streams {
		streamIdx[cs.Name] = i
	}
	c := &Checkpoint{
		Version:        CheckpointVersion,
		Mode:           g.mode.String(),
		Run:            run,
		Machine:        g.machine,
		SourceOverhead: g.sourceOverhead,
		Streams:        g.streams,
		Actions:        make([]CkptAction, 0, len(spans)),
	}
	for i := range spans {
		sp := &spans[i]
		si, okS := streamIdx[sp.Stream]
		if !okS {
			return nil, fmt.Errorf("%w: run %d span %d names unknown stream %q",
				ErrCheckpointEvicted, run, sp.ID, sp.Stream)
		}
		ca := CkptAction{
			Stream: si,
			Label:  sp.Label,
			Bytes:  sp.Bytes,
			Cost:   spanCost(sp),
		}
		switch sp.Kind {
		case trace.Compute:
			ca.Kind = ckptKindCompute
		case trace.Sync:
			ca.Kind = ckptKindSync
		case trace.Transfer:
			if sp.Src == sp.Domain && sp.Src != "" {
				ca.Kind = ckptKindXferToSrc
			} else {
				// Card to-sink transfers record Dst == domain;
				// host-as-target transfers record no direction at all,
				// and cost the same either way, so to-sink is a
				// cost-neutral default for them.
				ca.Kind = ckptKindXferToSink
			}
		}
		for _, d := range sp.Deps {
			ca.Deps = append(ca.Deps, CkptDep{Pred: int(d.ID) - 1, Why: d.Why.String()})
		}
		c.Actions = append(c.Actions, ca)
	}
	return c, nil
}

// Checkpoint cuts a checkpoint of this runtime's latest completed DAG
// from its flight recorder. Call after the work has drained
// (ThreadSynchronize/Fini); with causal tracing disabled there is
// nothing to checkpoint.
func (rt *Runtime) Checkpoint() (*Checkpoint, error) {
	if rt.flight == nil {
		return nil, fmt.Errorf("%w: causal tracing disabled", ErrCheckpointEvicted)
	}
	return CheckpointRun(rt.flight, rt.runID)
}

// Encode writes the checkpoint as indented JSON.
func (c *Checkpoint) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// DecodeCheckpoint reads a checkpoint, rejecting version mismatches
// and structurally invalid DAGs (out-of-range stream or dependence
// indices, forward or self dependences).
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if c.Version != CheckpointVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d",
			ErrCheckpointVersion, c.Version, CheckpointVersion)
	}
	if c.Machine == nil || c.Machine.Host == nil {
		return nil, fmt.Errorf("%w: no machine", ErrCheckpointInvalid)
	}
	nd := len(c.Machine.Domains())
	for i, cs := range c.Streams {
		if cs.Domain < 0 || cs.Domain >= nd {
			return nil, fmt.Errorf("%w: stream %d on domain %d of %d", ErrCheckpointInvalid, i, cs.Domain, nd)
		}
	}
	for i, ca := range c.Actions {
		if ca.Stream < 0 || ca.Stream >= len(c.Streams) {
			return nil, fmt.Errorf("%w: action %d in stream %d of %d", ErrCheckpointInvalid, i, ca.Stream, len(c.Streams))
		}
		for _, d := range ca.Deps {
			if d.Pred < 0 || d.Pred >= i {
				return nil, fmt.Errorf("%w: action %d depends on %d", ErrCheckpointInvalid, i, d.Pred)
			}
		}
	}
	return &c, nil
}

// ReplayResult is what a successful replay produced.
type ReplayResult struct {
	// Actions is the number of actions re-executed.
	Actions int
	// Makespan is the replayed schedule's Sim makespan.
	Makespan time.Duration
	// Report is the critical-path analysis of the replayed DAG.
	Report *trace.CritReport
	// Spans is the replayed DAG, ordered by action id.
	Spans []trace.Span
}

// Replay re-executes the checkpointed DAG in a fresh Sim runtime with
// a private registry and flight recorder, then asserts the executed
// DAG is edge-for-edge identical to the checkpoint (same predecessor
// set with the same edge kinds per action), returning
// ErrReplayDiverged otherwise. Because the dependence edges are taken
// from the checkpoint rather than rediscovered, replay is exact even
// for DAGs whose operand-level inputs (buffers, offsets) were not
// recorded — the schedule geometry and the cost model fully determine
// Sim timing.
func (c *Checkpoint) Replay() (*ReplayResult, error) {
	rt, err := Init(Config{
		Machine:        c.Machine,
		Mode:           ModeSim,
		SourceOverhead: c.SourceOverhead,
		Metrics:        metrics.New(),
		Flight:         trace.NewFlight(len(c.Actions) + 1),
	})
	if err != nil {
		return nil, err
	}
	defer rt.Fini()
	domains := rt.Domains()
	streams := make([]*Stream, len(c.Streams))
	for i, cs := range c.Streams {
		s, errS := rt.StreamCreate(domains[cs.Domain], cs.FirstCore, cs.NCores)
		if errS != nil {
			return nil, fmt.Errorf("core: replay stream %d: %w", i, errS)
		}
		if s.name != cs.Name {
			return nil, fmt.Errorf("%w: recreated stream %d named %q, checkpoint says %q",
				ErrReplayDiverged, i, s.name, cs.Name)
		}
		streams[i] = s
	}
	actions := make([]*Action, len(c.Actions))
	for i, ca := range c.Actions {
		var kind ActKind
		switch ca.Kind {
		case ckptKindCompute:
			kind = ActCompute
		case ckptKindXferToSink:
			kind = ActXferToSink
		case ckptKindXferToSrc:
			kind = ActXferToSrc
		case ckptKindSync:
			kind = ActSync
		default:
			return nil, fmt.Errorf("%w: action %d has kind %q", ErrCheckpointInvalid, i, ca.Kind)
		}
		deps := make([]*Action, 0, len(ca.Deps))
		whys := make([]trace.DepKind, 0, len(ca.Deps))
		for _, d := range ca.Deps {
			deps = append(deps, actions[d.Pred])
			whys = append(whys, parseDepKind(d.Why))
		}
		a, errA := streams[ca.Stream].enqueueReplay(kind, ca.Label, ca.Bytes, ca.Cost, deps, whys)
		if errA != nil {
			return nil, fmt.Errorf("core: replay action %d: %w", i, errA)
		}
		actions[i] = a
	}
	rt.ThreadSynchronize()
	if errR := rt.Err(); errR != nil {
		return nil, fmt.Errorf("core: replay execution: %w", errR)
	}
	spans := trace.FilterRun(rt.flight.Snapshot(), rt.runID)
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	if len(spans) != len(c.Actions) {
		return nil, fmt.Errorf("%w: replayed %d spans for %d actions",
			ErrReplayDiverged, len(spans), len(c.Actions))
	}
	for i := range spans {
		if err := sameEdges(c.Actions[i].Deps, spans[i].Deps); err != nil {
			return nil, fmt.Errorf("%w: action %d: %v", ErrReplayDiverged, i, err)
		}
	}
	rep := trace.Analyze(spans)
	return &ReplayResult{
		Actions:  len(spans),
		Makespan: rep.Makespan,
		Report:   rep,
		Spans:    spans,
	}, nil
}

// parseDepKind maps a checkpoint edge-kind token back to trace.DepKind.
func parseDepKind(s string) trace.DepKind {
	switch s {
	case trace.DepSync.String():
		return trace.DepSync
	case trace.DepEvent.String():
		return trace.DepEvent
	default:
		return trace.DepFIFO
	}
}

// sameEdges compares a checkpointed edge set against a replayed one as
// sets of (predecessor, kind) pairs, reporting the first discrepancy.
func sameEdges(want []CkptDep, got []trace.Dep) error {
	type edge struct {
		pred int
		why  string
	}
	w := make(map[edge]int, len(want))
	for _, d := range want {
		w[edge{d.Pred, d.Why}]++
	}
	for _, d := range got {
		e := edge{int(d.ID) - 1, d.Why.String()}
		if w[e] == 0 {
			return fmt.Errorf("extra edge from %d (%s)", e.pred, e.why)
		}
		w[e]--
	}
	for e, n := range w {
		if n > 0 {
			return fmt.Errorf("missing edge from %d (%s)", e.pred, e.why)
		}
	}
	return nil
}
