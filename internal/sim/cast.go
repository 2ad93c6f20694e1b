package sim

import (
	"fmt"
	"slices"

	"lineartime/internal/bitset"
	"lineartime/internal/graph"
	"lineartime/internal/obs"
)

// This file is the neighborcast engine: the streamed execution mode
// for one-bit broadcast rounds over implicit topologies. The general
// engine (sim.go) materializes every round's traffic — outboxes, a
// packed wire plane, CSR inboxes — which is the right shape for
// arbitrary payloads and per-link schedules, but it keeps O(n·d)
// state resident, and past n ≈ 10^5 that memory is the wall, not
// compute. The neighborcast mode exploits the structure shared by the
// paper's flooding/probing phases: every node sends at most one bit
// per round, and it sends the same bit to every neighbor. Under that
// shape, delivery can be PULLED instead of routed: publish each
// node's (bit, casting) pair as two bitset planes — O(n) bits total —
// and let each receiver regenerate its neighbor list from the seeded
// construction (graph.Neighborhood) and gather counts on the fly with
// O(d) scratch. Nothing per-edge is ever stored, which is what breaks
// the memory wall and opens n ≥ 2^20.

// CastSystem is the per-node state machine of a neighborcast run. The
// engine calls Cast for every alive node, then Absorb for every alive
// node, once per round; both orders are ascending by node on the
// sequential engine, and Absorb(u) observes exactly the casts of
// round r regardless of engine, so the parallel engine is
// result-identical.
//
// The parallel engine calls Cast and Absorb for distinct nodes
// concurrently; implementations keep per-node state disjoint (the
// natural shape for a distributed protocol) or serialize internally.
type CastSystem interface {
	// N returns the number of nodes.
	N() int
	// Cast returns node u's one-bit broadcast for the round; send
	// false keeps u silent this round.
	Cast(u, round int) (bit, send bool)
	// Absorb delivers the gathered round to u: ones and zeros count
	// the casting in-neighbors of u whose bit was 1 resp. 0 (after
	// crashes and the link filter).
	Absorb(u, round, ones, zeros int)
	// Done reports whether the system has terminated after the given
	// number of completed rounds; the engine stops early when true.
	Done(rounds int) bool
}

// CastConfig configures a neighborcast run.
type CastConfig struct {
	// System is the protocol.
	System CastSystem
	// Topology generates the (sorted) neighbor lists. An implicit
	// generator (graph.Shift) keeps the run's resident topology state
	// at O(d); a materialized *graph.Graph works identically.
	Topology graph.Neighborhood
	// MaxRounds bounds the run.
	MaxRounds int
	// Crash gives node u's crash round (first round at which u is
	// silent and deaf), or a negative value if u never crashes; nil
	// means no crashes. Neighborcast crashes are clean — a crashed
	// node's round emits nothing, never a partial multicast (the
	// general engine's Keep-prefix crashes route per-link and need
	// the materialized path).
	Crash func(u int) int
	// Filter is an optional per-link fault model. It must never
	// delay (MaxDelay 0): pulled delivery has no in-flight plane to
	// park a delayed bit in. Drops apply per (round, from, to) edge,
	// exactly as on the general engine.
	Filter LinkFilter
	// Tracer optionally receives stage timings and the run outcome;
	// the steady state stays allocation-free with one installed.
	Tracer obs.RunTracer
}

// CastResult is the outcome envelope of a neighborcast run. Like
// Result, the paper's two measures: Messages counts one envelope per
// neighbor per cast (at send time, after crashes, before link drops)
// and every payload is one bit, so Bits equals Messages.
type CastResult struct {
	Rounds   int
	Messages int64
	Bits     int64
	// Alive is the number of non-crashed nodes at the end.
	Alive int
}

// crashEvent schedules one node's clean crash.
type crashEvent struct{ round, node int }

// castState is the pooled arena of the neighborcast engine: three
// bitset planes (alive, casting, bit values) of n bits each plus O(d)
// neighbor scratch — the entire resident footprint of a run. It is
// recycled across runs by Runtime; after the first run of a shape,
// steady-state runs are allocation-free.
type castState struct {
	sys    CastSystem
	nb     graph.Neighborhood
	filter LinkFilter

	n         int
	maxDeg    int
	maxRounds int

	alive  *bitset.Set // not yet crashed
	active *bitset.Set // cast something this round
	bits   *bitset.Set // the cast bit, meaningful where active

	crashes   []crashEvent
	nextCrash int
	msgs      int64

	// Per-shard state (castpool.go): 64-aligned shard bounds (so two
	// workers never write the same bitset word), per-shard neighbor
	// regeneration buffers (cap ≥ MaxDegree) and message counters. A
	// sequential run is one shard.
	bounds   []int
	wscratch [][]int
	wmsgs    []int64

	res CastResult
}

func (cs *castState) reset(cfg CastConfig) error {
	if cfg.System == nil || cfg.Topology == nil {
		return fmt.Errorf("sim: neighborcast needs a System and a Topology")
	}
	n := cfg.System.N()
	if tn := cfg.Topology.N(); tn != n {
		return fmt.Errorf("sim: neighborcast system has %d nodes but topology has %d", n, tn)
	}
	if n <= 0 {
		return fmt.Errorf("sim: neighborcast needs n > 0, got %d", n)
	}
	if cfg.MaxRounds <= 0 {
		return fmt.Errorf("sim: neighborcast needs MaxRounds > 0, got %d", cfg.MaxRounds)
	}
	if cfg.Filter != nil {
		if d := cfg.Filter.MaxDelay(); d != 0 {
			return fmt.Errorf("sim: neighborcast cannot delay (filter MaxDelay %d); delay faults need the materialized engine", d)
		}
	}
	cs.sys, cs.nb, cs.filter = cfg.System, cfg.Topology, cfg.Filter
	cs.maxRounds = cfg.MaxRounds
	if cs.n != n || cs.alive == nil {
		cs.n = n
		cs.alive = bitset.New(n)
		cs.active = bitset.New(n)
		cs.bits = bitset.New(n)
	} else {
		cs.active.Clear()
		cs.bits.Clear()
	}
	cs.alive.Fill()
	cs.maxDeg = cfg.Topology.MaxDegree()
	cs.crashes = cs.crashes[:0]
	cs.nextCrash = 0
	if cfg.Crash != nil {
		for u := 0; u < n; u++ {
			if r := cfg.Crash(u); r >= 0 {
				cs.crashes = append(cs.crashes, crashEvent{round: r, node: u})
			}
		}
		slices.SortFunc(cs.crashes, func(a, b crashEvent) int {
			if a.round != b.round {
				return a.round - b.round
			}
			return a.node - b.node
		})
	}
	cs.msgs = 0
	cs.res = CastResult{}
	return nil
}

// detach drops the references a finished run borrowed from its
// config, so a pooled arena never pins the caller's system.
func (cs *castState) detach() {
	cs.sys, cs.nb, cs.filter = nil, nil, nil
}

// applyCrashes executes the round's crash seam.
func (cs *castState) applyCrashes(r int) {
	for cs.nextCrash < len(cs.crashes) && cs.crashes[cs.nextCrash].round <= r {
		cs.alive.Remove(cs.crashes[cs.nextCrash].node)
		cs.nextCrash++
	}
}

// castRange runs the publish half of a round for nodes [lo, hi):
// every alive node's (bit, casting) pair lands in the bit planes, and
// each cast is charged deg(u) one-bit messages. Ranges handed to
// concurrent workers are 64-aligned, so all bitset word writes in
// [lo, hi) are exclusive to this call.
func (cs *castState) castRange(r, lo, hi int) int64 {
	var msgs int64
	for u := lo; u < hi; u++ {
		if !cs.alive.Contains(u) {
			cs.active.Remove(u)
			continue
		}
		bit, send := cs.sys.Cast(u, r)
		if !send {
			cs.active.Remove(u)
			continue
		}
		cs.active.Add(u)
		if bit {
			cs.bits.Add(u)
		} else {
			cs.bits.Remove(u)
		}
		msgs += int64(cs.nb.Degree(u))
	}
	return msgs
}

// absorbRange runs the gather half of a round for nodes [lo, hi):
// each alive node regenerates its neighbor list into scratch and
// counts the casting neighbors' bits, applying the link filter per
// pulled edge. It only reads the shared planes, so any partition of
// the node range is race-free.
func (cs *castState) absorbRange(r, lo, hi int, scratch []int) []int {
	for u := lo; u < hi; u++ {
		if !cs.alive.Contains(u) {
			continue
		}
		scratch = cs.nb.AppendNeighbors(u, scratch[:0])
		ones, zeros := 0, 0
		for _, w := range scratch {
			if !cs.active.Contains(w) {
				continue
			}
			bit := cs.bits.Contains(w)
			if cs.filter != nil &&
				cs.filter.FilterLink(r, Envelope{From: w, To: u, Payload: Bit(bit)}) != Deliver {
				continue
			}
			if bit {
				ones++
			} else {
				zeros++
			}
		}
		cs.sys.Absorb(u, r, ones, zeros)
	}
	return scratch
}

// run executes the neighborcast loop. Each round publishes (cast)
// then gathers (absorb); with a pool each half fans out over the
// workers' shards behind a barrier, without one it runs inline as a
// single shard. The crash seam and the Done check stay on the caller.
func (cs *castState) run(p *pool) *CastResult {
	rounds := 0
	for r := 0; r < cs.maxRounds; r++ {
		cs.applyCrashes(r)
		cs.phase(p, jobCast, r)
		for _, m := range cs.wmsgs {
			cs.msgs += m
		}
		cs.phase(p, jobAbsorb, r)
		rounds = r + 1
		if cs.sys.Done(rounds) {
			break
		}
	}
	cs.res = CastResult{
		Rounds:   rounds,
		Messages: cs.msgs,
		Bits:     cs.msgs, // every payload is one bit
		Alive:    cs.alive.Count(),
	}
	return &cs.res
}

// RunCast executes a neighborcast system on the sequential engine,
// reusing the arena's buffers; steady-state runs of one shape are
// allocation-free. The returned result is owned by the arena and
// valid until the next cast run on this Runtime.
func (rt *Runtime) RunCast(cfg CastConfig) (*CastResult, error) {
	return rt.runCast(cfg, obs.EngineCast, 0)
}

// runCast is the neighborcast lifecycle; engine selects inline or
// pool-sharded phases.
func (rt *Runtime) runCast(cfg CastConfig, engine obs.Engine, workers int) (*CastResult, error) {
	tr := startTrace(cfg.Tracer, engine)
	if rt.cs == nil {
		rt.cs = &castState{}
	}
	cs := rt.cs
	if err := cs.reset(cfg); err != nil {
		cs.detach()
		tr.fail()
		return nil, err
	}
	var p *pool
	shards := 1
	if engine == obs.EngineCastParallel {
		p = rt.workerPool(resolveWorkers(workers, cs.n))
		shards = p.workers
	}
	cs.shard(shards)
	tr.setupDone()
	res := cs.run(p)
	cs.detach()
	tr.done(res.Rounds, nil)
	return res, nil
}

// RunCast executes the configured neighborcast system on a fresh
// arena.
func RunCast(cfg CastConfig) (*CastResult, error) {
	return NewRuntime().RunCast(cfg)
}
