// Package matmul implements the paper's matrix-multiplication
// application (§V, Fig. 4): A, B and C are decomposed into square
// tiles; A is broadcast tile-by-tile to the host (host-as-target
// streams) and all cards; B and C are partitioned into column panels,
// each panel owned by one computational domain; panel updates are
// independent, so no card↔card communication is needed; and tiling
// plus multiple streams hides transfer latency behind compute.
//
// The same tiled algorithm also exists in each rival model's dialect
// (CUDA Streams, OpenMP 4.0/4.5, OmpSs, OpenCL) for the paper's
// Fig. 3 coding/performance comparison.
package matmul

import (
	"errors"
	"time"

	"hstreams/internal/app"
	"hstreams/internal/blas"
	"hstreams/internal/core"
	"hstreams/internal/floatbits"
	"hstreams/internal/kernels"
	"hstreams/internal/platform"
)

// ErrBadTiling reports an n that is not divisible by the tile size.
var ErrBadTiling = errors.New("matmul: matrix size must be a multiple of the tile size")

// Config describes one hStreams matmul run.
type Config struct {
	// N is the matrix edge; Tile the tile edge (N%Tile == 0).
	N, Tile int
	// UseHost includes host-as-target streams as a compute domain
	// (they must exist on the app); false restricts work to cards
	// even when host streams are present.
	UseHost bool
	// LoadBalance assigns panels proportionally to each domain's
	// modeled DGEMM rate instead of evenly — the Fig. 6 "with load
	// bal" vs "no load bal" comparison.
	LoadBalance bool
	// Verify (Real mode) fills A and B deterministically and checks
	// C against a reference product.
	Verify bool
}

// Result summarizes a run.
type Result struct {
	Seconds time.Duration
	GFlops  float64
	// PanelsPerDomain records the work split (domain index → tile
	// columns owned).
	PanelsPerDomain []int
}

// Run executes the hetero tiled matmul on an initialized app instance
// and returns performance results. In Real mode the matrices hold
// real data and the result is verified if requested; in Sim mode the
// identical action graph runs on the virtual clock.
func Run(a *app.App, cfg Config) (Result, error) {
	if cfg.N%cfg.Tile != 0 {
		return Result{}, ErrBadTiling
	}
	rt := a.RT
	nt := cfg.N / cfg.Tile
	tb := cfg.Tile
	tileBytes := kernels.TileBytes(tb)
	total := int64(nt) * int64(nt) * tileBytes

	bufA, err := rt.Alloc1D("A", total)
	if err != nil {
		return Result{}, err
	}
	bufB, err := rt.Alloc1D("B", total)
	if err != nil {
		return Result{}, err
	}
	bufC, err := rt.Alloc1D("C", total)
	if err != nil {
		return Result{}, err
	}
	if rt.Mode() == core.ModeReal {
		kernels.Register(rt)
		fillTiled(bufA, nt, tb, FillA)
		fillTiled(bufB, nt, tb, FillB)
	}

	doms := a.ComputeDomains()
	if !cfg.UseHost {
		kept := doms[:0]
		for _, d := range doms {
			if !d.IsHost() {
				kept = append(kept, d)
			}
		}
		doms = kept
	}
	if len(doms) == 0 {
		return Result{}, app.ErrNoStreams
	}
	owner := assignPanels(doms, nt, cfg.LoadBalance, tb)

	start := rt.Now()
	// residency tracks, per domain, the transfer action that brought
	// each tile of A/B to the domain; nil means host-resident only.
	res := newResidency(len(rt.Domains()))

	for j := 0; j < nt; j++ {
		d := owner[j]
		for i := 0; i < nt; i++ {
			// One C tile per stream, round-robin within the owning
			// domain — the "stream per tile" mapping the paper's
			// tuners start from (§II).
			s, err := a.NextStream(d)
			if err != nil {
				return Result{}, err
			}
			cOff := kernels.TileOff(i, j, nt, tb)
			for k := 0; k < nt; k++ {
				aOff := kernels.TileOff(i, k, nt, tb)
				bOff := kernels.TileOff(k, j, nt, tb)
				// At most the A and B transfers: a stack array holds them.
				var depbuf [2]*core.Action
				deps := depbuf[:0]
				if dep, err := res.ensure(d, s, bufA, aOff, tileBytes); err != nil {
					return Result{}, err
				} else if dep != nil {
					deps = append(deps, dep)
				}
				if dep, err := res.ensure(d, s, bufB, bOff, tileBytes); err != nil {
					return Result{}, err
				} else if dep != nil {
					deps = append(deps, dep)
				}
				kname := kernels.DgemmAcc
				if k == 0 {
					kname = dgemmOverwrite
				}
				ops := []core.Operand{
					bufA.Range(aOff, tileBytes, core.In),
					bufB.Range(bOff, tileBytes, core.In),
					bufC.Range(cOff, tileBytes, core.InOut),
				}
				if _, err := s.EnqueueComputeDeps(kname, []int64{int64(tb), int64(tb), int64(tb)},
					ops, kernels.GemmCost(tb, tb, tb), deps); err != nil {
					return Result{}, err
				}
			}
			// Panel result back to the host (aliased away on host
			// streams).
			if _, err := s.EnqueueXfer(bufC, cOff, tileBytes, core.ToSource); err != nil {
				return Result{}, err
			}
		}
	}
	rt.ThreadSynchronize()
	if err := rt.Err(); err != nil {
		return Result{}, err
	}
	elapsed := rt.Now() - start

	if cfg.Verify && rt.Mode() == core.ModeReal {
		if err := verify(bufA, bufB, bufC, nt, tb); err != nil {
			return Result{}, err
		}
	}
	flops := 2 * float64(cfg.N) * float64(cfg.N) * float64(cfg.N)
	counts := make([]int, len(rt.Domains()))
	for _, d := range owner {
		counts[d.Index()]++
	}
	return Result{Seconds: elapsed, GFlops: platform.GFlops(flops, elapsed), PanelsPerDomain: counts}, nil
}

// dgemmOverwrite is DgemmAcc with beta = 0 (first k-step initializes
// the C tile in place, so no C transfer to the sink is needed).
const dgemmOverwrite = "tile.dgemm.b0"

// oclDgemmAcc / oclDgemmB0 are the OpenCL-style kernels: whole-matrix
// buffer objects plus element offsets as scalar arguments (args:
// m, n, k, aOff, bOff, cOff; ops: A, B, C whole buffers).
const (
	oclDgemmAcc = "ocl.dgemm.acc"
	oclDgemmB0  = "ocl.dgemm.b0"
)

// RegisterExtra installs matmul-specific kernels (Real mode).
func RegisterExtra(rt *core.Runtime) {
	rt.RegisterKernel(dgemmOverwrite, func(ctx *core.KernelCtx) {
		m, n, k := int(ctx.Args[0]), int(ctx.Args[1]), int(ctx.Args[2])
		a := floatbits.Float64s(ctx.Ops[0])
		b := floatbits.Float64s(ctx.Ops[1])
		c := floatbits.Float64s(ctx.Ops[2])
		blas.DgemmParallel(blas.NoTrans, blas.NoTrans, m, n, k, 1, a, m, b, k, 0, c, m, ctx.Threads)
	})
	ocl := func(beta float64) core.Kernel {
		return func(ctx *core.KernelCtx) {
			m, n, k := int(ctx.Args[0]), int(ctx.Args[1]), int(ctx.Args[2])
			a := floatbits.Float64s(ctx.Ops[0])[ctx.Args[3]:]
			b := floatbits.Float64s(ctx.Ops[1])[ctx.Args[4]:]
			c := floatbits.Float64s(ctx.Ops[2])[ctx.Args[5]:]
			blas.DgemmParallel(blas.NoTrans, blas.NoTrans, m, n, k, 1, a, m, b, k, beta, c, m, ctx.Threads)
		}
	}
	rt.RegisterKernel(oclDgemmAcc, ocl(1))
	rt.RegisterKernel(oclDgemmB0, ocl(0))
}

// assignPanels distributes the nt tile-columns over the compute
// domains: evenly, or proportionally to modeled DGEMM rate when load
// balancing (the paper's manual load-balance knob, §VI).
func assignPanels(doms []*core.Domain, nt int, balance bool, tb int) []*core.Domain {
	owner := make([]*core.Domain, nt)
	if !balance {
		for j := 0; j < nt; j++ {
			owner[j] = doms[j%len(doms)]
		}
		return owner
	}
	weights := make([]float64, len(doms))
	var sum float64
	for i, d := range doms {
		c := kernels.GemmCost(tb, tb, tb)
		t := platform.ComputeTime(d.Spec(), d.Spec().Cores(), c)
		weights[i] = c.Flops / t.Seconds()
		sum += weights[i]
	}
	// Largest-remainder apportionment.
	counts := make([]int, len(doms))
	rem := make([]float64, len(doms))
	given := 0
	for i := range doms {
		exact := float64(nt) * weights[i] / sum
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		given += counts[i]
	}
	for given < nt {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		given++
	}
	j := 0
	for i, d := range doms {
		for c := 0; c < counts[i]; c++ {
			owner[j] = d
			j++
		}
	}
	return owner
}

// residency tracks which tiles have been pushed to each domain and by
// which transfer action, so A is broadcast once per domain and later
// streams wait on the in-flight transfer instead of re-sending.
type residency struct {
	m []map[int64]*core.Action // per domain: tile offset → transfer
}

func newResidency(domains int) *residency {
	r := &residency{m: make([]map[int64]*core.Action, domains)}
	for i := range r.m {
		r.m[i] = make(map[int64]*core.Action)
	}
	return r
}

// ensure makes the tile resident in d, enqueueing the transfer in s
// if it is the first user. It returns the action the caller must
// depend on when the transfer belongs to a different stream (nil when
// none is needed).
func (r *residency) ensure(d *core.Domain, s *core.Stream, b *core.Buf, off, n int64) (*core.Action, error) {
	if d.IsHost() {
		return nil, nil // host streams alias the source instance
	}
	key := b.ProxyBase() + uint64(off)
	if a, ok := r.m[d.Index()][int64(key)]; ok {
		if a.Stream() == s {
			return nil, nil // in-stream FIFO covers the ordering
		}
		return a, nil
	}
	a, err := s.EnqueueXfer(b, off, n, core.ToSink)
	if err != nil {
		return nil, err
	}
	r.m[d.Index()][int64(key)] = a
	return nil, nil
}

// fillTiled writes f(i, j) into global element (i, j) of a tiled
// buffer (Real mode).
func fillTiled(b *core.Buf, nt, tb int, f func(i, j int) float64) {
	FillTiledSlice(b.HostFloat64s(), nt, tb, f)
}

// verify recomputes C = A·B untiled and compares.
func verify(bufA, bufB, bufC *core.Buf, nt, tb int) error {
	return VerifyTiledProduct(bufA.HostFloat64s(), bufB.HostFloat64s(), bufC.HostFloat64s(), nt, tb)
}
