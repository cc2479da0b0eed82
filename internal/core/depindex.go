package core

// Operand-interval dependence index.
//
// The seed scheduler discovered dependences with an all-pairs scan:
// every enqueue compared the new action's operands against every
// operand of every incomplete action in the stream — O(window × ops²)
// under one global lock, which made the scheduler itself the serial
// bottleneck the paper's multi-stream scaling (Fig. 6/9) is supposed
// to avoid. The index replaces the scan with per-buffer interval
// bookkeeping, per stream (dependences only ever form within a
// stream; cross-stream edges are explicit events):
//
//   - w: the last-writer intervals of the buffer — disjoint by
//     construction, because a new write carves away the overlapped
//     parts of older intervals, and kept sorted by offset, so an
//     access binary-searches to the first interval it overlaps and
//     visits only the overlapped ones. Cost is O(log n + overlap), not
//     O(queue depth): a card stream of the Fig. 6 matmul holds
//     hundreds of disjoint tile intervals per buffer.
//   - r: the live reader intervals since the last write of those
//     bytes; they may overlap each other (RAR is not a hazard).
//
// A write depends on (and carves away) every overlapping last-writer
// (WAW) and live-reader (WAR) interval; a read depends on every
// overlapping last-writer interval (RAW) and adds itself to r. Owners
// that have completed impose no order (addDep drops them); their
// intervals stay in w until a write overwrites them or an amortized
// sweep (wSweep, like rSweep for readers) drops them, because removing
// them during a read would cost a shift of the sorted list. This
// produces the transitive reduction of the seed's full hazard edge
// set: an edge the index omits (e.g. third writer → first writer) is
// always implied by the chain it keeps, so the FIFO semantic — and
// the critical path the flight recorder reconstructs from the
// recorded edges — are preserved exactly. The differential property
// test (depindex_test.go) checks the produced edge set against an
// independent per-cell last-writer/live-reader model.
//
// Sync actions never enter the index. A sync orders against every
// incomplete action, so enqueueing one bumps the stream's epoch
// counter: interval sets whose epoch is stale are reset lazily on
// next touch, because everything they describe is dominated by the
// barrier. Actions enqueued after a sync depend on it directly (and
// on nothing older) while it is incomplete.

// opIval is one live operand interval owned by an incomplete action.
type opIval struct {
	off, end int64
	act      *Action
}

// bufIvals is the per-(stream, buffer) interval set. Guarded by the
// stream's lock.
type bufIvals struct {
	epoch  uint64
	w      []opIval // last-writer intervals, disjoint, sorted by offset
	r      []opIval // live reader intervals since the last write
	wSweep int      // len(w) that triggers the next dead-owner sweep
	rSweep int      // len(r) that triggers the next dead-owner sweep
}

// indexFor returns the stream's interval set for b, resetting it if a
// sync barrier superseded its epoch. Caller holds s.mu.
func (s *Stream) indexFor(b *Buf) *bufIvals {
	iv := s.index[b]
	if iv == nil {
		iv = &bufIvals{epoch: s.epoch}
		s.index[b] = iv
		return iv
	}
	if iv.epoch != s.epoch {
		iv.epoch = s.epoch
		iv.w = iv.w[:0]
		iv.r = iv.r[:0]
		iv.wSweep, iv.rSweep = 0, 0
	}
	return iv
}

// depScan registers the dependences of operand o of action a against
// the stream's index and inserts a's own interval. addDep must
// tolerate repeated calls with the same predecessor. Caller holds
// s.mu.
func (s *Stream) depScan(a *Action, o Operand, addDep func(*Action)) {
	if o.Len <= 0 {
		return // empty ranges touch nothing (Operand.overlaps)
	}
	iv := s.indexFor(o.Buf)
	lo, hi := o.Off, o.Off+o.Len
	// w[i:j] are the last-writer intervals overlapping [lo, hi).
	i := firstEndAfter(iv.w, lo)
	j := i
	for j < len(iv.w) && iv.w[j].off < hi {
		addDep(iv.w[j].act)
		j++
	}
	if !o.Acc.writes() {
		// RAW with every overlapped last writer; the writers stay (they
		// remain last writer for their bytes).
		iv.r = append(iv.r, opIval{off: lo, end: hi, act: a})
		// Reader intervals are only removed when a write carves them,
		// so a read-heavy stream would otherwise grow r without bound;
		// sweep completed owners amortized-O(1) when the list doubles.
		if len(iv.r) >= iv.rSweep {
			iv.r = sweep(iv.r)
			iv.rSweep = 2*len(iv.r) + 16
		}
		return
	}
	// WAW with the overlapped last writers (above), WAR with overlapped
	// live readers; both are superseded for the overlapped bytes —
	// later accesses order against this write, and against the
	// carved-away remainder transitively. The overlapped writers are
	// replaced, in place, by the remainders that stick out on either
	// side (while their owner is incomplete) and the new interval.
	iv.r = carve(iv.r, lo, hi, addDep)
	iv.overwrite(i, j, lo, hi, a)
	if len(iv.w) >= iv.wSweep {
		iv.w = sweep(iv.w)
		iv.wSweep = 2*len(iv.w) + 16
	}
}

// overwrite replaces the last-writer intervals w[i:j], which overlap
// [lo, hi), with a's interval, keeping the parts that stick out on
// either side while their owner is incomplete. The rest of the list
// keeps its order; a vacated tail is zeroed so the backing array does
// not pin retired actions.
func (iv *bufIvals) overwrite(i, j int, lo, hi int64, a *Action) {
	w := iv.w
	n := 1 // intervals replacing w[i:j]
	left := i < j && w[i].off < lo && !w[i].act.completed()
	right := i < j && w[j-1].end > hi && !w[j-1].act.completed()
	var rest opIval // w[j-1], which the shift below may overwrite
	if right {
		rest = opIval{off: hi, end: w[j-1].end, act: w[j-1].act}
		n++
	}
	if left {
		w[i].end = lo // the left remainder keeps its slot
		i++
	}
	end := len(w)
	if d := n - (j - i); d > 0 {
		for k := 0; k < d; k++ {
			w = append(w, opIval{})
		}
		copy(w[j+d:], w[j:end])
	} else if d < 0 {
		copy(w[j+d:], w[j:end])
		clearTail(w, end+d)
		w = w[:end+d]
	}
	w[i] = opIval{off: lo, end: hi, act: a}
	if right {
		w[i+1] = rest
	}
	iv.w = w
}

// firstEndAfter returns the index of the first interval of the sorted,
// disjoint list w that ends after lo — the first one an access starting
// at lo can overlap — or len(w) if there is none. Disjoint intervals
// sorted by offset are sorted by end too.
func firstEndAfter(w []opIval, lo int64) int {
	i, j := 0, len(w)
	for i < j {
		h := int(uint(i+j) >> 1)
		if w[h].end <= lo {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// sweep drops the intervals whose owner has completed, keeping the
// order of the rest.
func sweep(list []opIval) []opIval {
	live := list[:0]
	for _, n := range list {
		if !n.act.completed() {
			live = append(live, n)
		}
	}
	clearTail(list, len(live))
	return live
}

// carve visits every interval of list overlapping [lo, hi), reports
// its owner to dep, and removes the overlapped bytes — splitting
// intervals that stick out on both sides. Intervals whose owner has
// completed are dropped without a dep (completed predecessors impose
// no order). Returns the updated list.
func carve(list []opIval, lo, hi int64, dep func(*Action)) []opIval {
	for i := 0; i < len(list); {
		n := list[i]
		if n.act.completed() {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			continue
		}
		if n.end <= lo || n.off >= hi {
			i++
			continue
		}
		dep(n.act)
		left, right := n.off < lo, n.end > hi
		switch {
		case left && right:
			list[i].end = lo
			list = append(list, opIval{off: hi, end: n.end, act: n.act})
			i++
		case left:
			list[i].end = lo
			i++
		case right:
			list[i].off = hi
			i++
		default:
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
		}
	}
	return list
}

// clearTail zeroes list[n:] so swap-compaction does not pin retired
// actions through the backing array.
func clearTail(list []opIval, n int) {
	for i := n; i < len(list); i++ {
		list[i] = opIval{}
	}
}
