package sim

import "lineartime/internal/obs"

// The parallel neighborcast engine shards the node range over the
// Runtime's worker pool. Each round has two barriers, matching the
// sequential engine's two halves: all workers cast (publish into the
// shared bit planes), then all workers absorb (gather from them). The
// cast half writes bitset words, so shard boundaries are rounded up to
// multiples of 64: two workers never touch the same machine word, and
// no atomics are needed. The absorb half only reads the planes, and
// per-node system state is disjoint by the CastSystem contract, so any
// partition is race-free there. The crash seam and the Done check run
// serially on the caller between barriers. Because Absorb(u) observes
// exactly the full round's casts either way, the parallel engine is
// result-identical to the sequential one.

// The neighborcast engine's phases.
const (
	jobCast = iota
	jobAbsorb
)

// shard computes 64-aligned shard bounds for w shards and sizes the
// per-shard scratch and message accumulators, reusing prior capacity.
func (cs *castState) shard(w int) {
	if cap(cs.bounds) < w+1 {
		cs.bounds = make([]int, 0, w+1)
	}
	cs.bounds = append(cs.bounds[:0], 0)
	for i := 1; i < w; i++ {
		b := (i*cs.n/w + 63) &^ 63
		if b > cs.n {
			b = cs.n
		}
		cs.bounds = append(cs.bounds, b)
	}
	cs.bounds = append(cs.bounds, cs.n)
	if len(cs.wscratch) < w {
		ws := make([][]int, w)
		copy(ws, cs.wscratch)
		cs.wscratch = ws
	}
	for i := 0; i < w; i++ {
		if cap(cs.wscratch[i]) < cs.maxDeg {
			cs.wscratch[i] = make([]int, 0, cs.maxDeg)
		}
	}
	if cap(cs.wmsgs) < w {
		cs.wmsgs = make([]int64, w)
	}
	cs.wmsgs = cs.wmsgs[:w]
}

// runShard is the neighborcast engine's phase switch (shardRunner).
func (cs *castState) runShard(w int, job poolJob) {
	lo, hi := cs.bounds[w], cs.bounds[w+1]
	switch job.kind {
	case jobCast:
		cs.wmsgs[w] = cs.castRange(job.round, lo, hi)
	case jobAbsorb:
		cs.wscratch[w] = cs.absorbRange(job.round, lo, hi, cs.wscratch[w])
	}
}

// phase runs one half of round r over every shard: on the pool's
// workers when there is one, inline as shard 0 otherwise.
func (cs *castState) phase(p *pool, kind, r int) {
	if p == nil {
		cs.runShard(0, poolJob{kind: kind, round: r})
		return
	}
	p.runPhase(cs, kind, r)
}

// RunCastParallel executes a neighborcast system on the sharded worker
// pool, reusing the arena's buffers and its persistent workers. It is
// result-identical to RunCast. The System's Cast/Absorb are called
// concurrently for distinct nodes (see CastSystem), and a non-nil
// Filter must be safe for concurrent FilterLink calls — the stateless
// link models (e.g. seeded per-edge omission) are. The returned result
// is owned by the arena and valid until the next cast run on this
// Runtime.
func (rt *Runtime) RunCastParallel(cfg CastConfig, workers int) (*CastResult, error) {
	return rt.runCast(cfg, obs.EngineCastParallel, workers)
}

// RunCastParallel executes the configured neighborcast system on a
// fresh arena with the given worker count, stopping the pool before it
// returns.
func RunCastParallel(cfg CastConfig, workers int) (*CastResult, error) {
	rt := NewRuntime()
	defer rt.Close()
	return rt.RunCastParallel(cfg, workers)
}
