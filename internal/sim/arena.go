package sim

import (
	"runtime"

	"lineartime/internal/obs"
)

// Runtime is a reusable run arena: the full engine state — the CSR
// scratch workspace, the wire-plane escape table, the single-port
// rings and their n-sized idx tables, the delay ring, the metrics
// arrays, the arenas of the sliced and neighborcast engines, and (for
// parallel runs) one persistent worker pool — pooled across runs. The
// first run of a given shape grows every buffer to its peak; the
// second and subsequent runs are steady-state allocation-free, which
// is what makes repeated-run workloads (sweeps, replications,
// benchmarks) cheap. A zero-ish ~1.4MB-per-run rebuild cost at n=1000
// drops to zero.
//
// Every engine method runs the same lifecycle: reset the engine's
// arena, run the rounds, detach the caller's objects, all inside one
// tracer envelope (runTrace). The two parallel engines, RunParallel
// and RunCastParallel, share the Runtime's one pool; it is rebuilt
// only when the worker count changes. The package-level entry points
// are these methods on a fresh Runtime.
//
// A Runtime is not safe for concurrent use. Results it returns alias
// arena memory and are valid only until the next run on the same
// Runtime; use Result.Clone to keep one.
type Runtime struct {
	st *state
	// sl holds the bit-sliced engine's arena (sliced.go), created on
	// the first RunSliced and recycled across sliced runs.
	sl *slicedState
	// cs holds the neighborcast engine's arena (cast.go), created on
	// the first RunCast/RunCastParallel and recycled across cast runs.
	cs *castState
	// csl holds the sliced neighborcast arena (castsliced.go).
	csl *castSlicedState
	// slot holds the persistent worker pool, started by the first
	// parallel run of either engine and kept across runs (workers stay
	// parked on their job channels between runs). The indirection
	// exists for the finalizer: one cleanup per Runtime is registered
	// against the slot, so replacing the pool (worker-count change)
	// does not accumulate registrations that would pin dead pools.
	slot *poolSlot
}

// poolSlot is the stable object the Runtime's cleanup watches.
type poolSlot struct {
	p *pool
}

// NewRuntime returns an empty arena. Close releases the worker pool
// when the Runtime is done; a finalizer covers arenas that are simply
// dropped.
func NewRuntime() *Runtime {
	return &Runtime{st: &state{}}
}

// workerPool returns the Runtime's pool with the given worker count,
// starting it on first use and rebuilding it when the count changes.
func (rt *Runtime) workerPool(workers int) *pool {
	if rt.slot == nil {
		rt.slot = &poolSlot{}
		// The pool's goroutines keep the pool, the slot and the
		// engine arenas alive but not the Runtime itself, so a dropped
		// Runtime still becomes unreachable and the cleanup reaps
		// whatever pool the slot holds at that point.
		runtime.AddCleanup(rt, func(s *poolSlot) {
			if s.p != nil {
				s.p.shutdown()
			}
		}, rt.slot)
	}
	if p := rt.slot.p; p != nil {
		if p.workers == workers {
			return p
		}
		p.shutdown()
	}
	rt.slot.p = newPool(workers)
	return rt.slot.p
}

// Close stops the arena's worker pool, if any, and waits for its
// goroutines to exit. The Runtime remains usable; a later parallel run
// starts a fresh pool.
func (rt *Runtime) Close() {
	if rt.slot != nil && rt.slot.p != nil {
		rt.slot.p.shutdown()
		rt.slot.p = nil
	}
}

// Run executes the configured system on the sequential engine, reusing
// the arena's buffers. See Runtime for the result-aliasing contract.
func (rt *Runtime) Run(cfg Config) (*Result, error) {
	return rt.run(cfg, obs.EngineSequential, 0)
}

// RunParallel executes the configured system on the sharded worker
// pool, reusing the arena's buffers and its persistent workers. The
// constraints of the package-level RunParallel apply. See Runtime for
// the result-aliasing contract.
func (rt *Runtime) RunParallel(cfg Config, workers int) (*Result, error) {
	return rt.run(cfg, obs.EngineParallel, workers)
}

// run is the general engine's lifecycle; engine selects sequential or
// pool-sharded rounds.
func (rt *Runtime) run(cfg Config, engine obs.Engine, workers int) (*Result, error) {
	tr := startTrace(cfg.Tracer, engine)
	st := rt.st
	var err error
	if engine == obs.EngineParallel {
		err = validateParallelConfig(cfg)
	}
	if err == nil {
		err = st.reset(cfg)
	}
	if err != nil {
		// reset may have captured cfg; drop it so a pooled arena does
		// not pin the caller's protocol system after a failed run.
		st.detach()
		tr.fail()
		return nil, err
	}
	if engine == obs.EngineParallel {
		st.pool = rt.workerPool(resolveWorkers(workers, st.n))
		st.sh.prepare(st.n, st.pool.workers)
	}
	tr.setupDone()
	res, err := st.run()
	st.detach()
	rounds := cfg.MaxRounds
	if res != nil {
		rounds = res.Metrics.Rounds
	}
	tr.done(rounds, err)
	return res, err
}
