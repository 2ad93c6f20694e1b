package scenario

import (
	"runtime"
	"sync"
	"time"

	"lineartime/internal/consensus"
	"lineartime/internal/gossip"
	"lineartime/internal/obs"
	"lineartime/internal/sim"
)

// This file is the batch entry into the bit-sliced engine: ExecuteBatch
// is the only caller of sim.Runtime.RunSliced in the repository, the
// batch analogue of Execute. A batch of Specs is partitioned into
// sliced groups — same shape, so up to 64 of them ride one engine run
// as lanes — and a scalar remainder that runs through Run, so callers
// get one uniform call for "run all of these" and the engine choice
// stays invisible: every report and error is byte-for-byte what Run
// would have produced for that Spec.
//
// The stack table (slicedStacks) is the one place a sliceable stack is
// declared, and the only code here that knows which problem it runs:
// how its lanes group, how a chunk's shared system is built, and how a
// lane becomes a report. Routing applies Run's own precondition check
// (Spec.check), so a spec Run would reject runs scalar and fails with
// Run's error; specs with an Observer run scalar too, because the
// sliced engine emits no per-message events.

// slicedStack declares one bit-sliced protocol stack.
type slicedStack struct {
	problem   Problem
	algorithm Algorithm
	// minLanes is the smallest group worth a sliced run; smaller groups
	// run scalar.
	minLanes int
	// group copies into k the spec fields, beyond groupKey's common
	// ones, that the lanes of one sliced run must share.
	group func(sp Spec, k *groupKey)
	// build constructs a chunk's shared system for the given lane
	// count. It calls faults once, with the stack's little-node count,
	// to build the lanes' fault layers, and sizes the system for the
	// largest link delay faults returns.
	build func(shape Spec, lanes int, faults func(little int) (maxDelay int, err error)) (slicedSystem, laneFinish, error)
}

// slicedSystem is a lane-parallel system with a known schedule.
type slicedSystem interface {
	sim.SlicedSystem
	ScheduleLength() int
}

// laneFinish is the sliced analogue of system.finish: it completes
// lane's report from the finished run. It must run before the
// Runtime's next sliced run — lane results alias arena memory.
type laneFinish func(sp Spec, lane int, lr *sim.LaneResult, rep *Report)

// slicedStacks covers the two natively lane-parallel systems: the
// flooding comparator (consensus.SlicedFlooding) and the paper's
// multi-port expander gossip (gossip.SlicedGossip). EXPERIMENTS.md
// ("Performance model") documents the rule.
var slicedStacks = []slicedStack{
	{
		// Flooding has no topology, so its seeds differ freely across
		// lanes — that is what makes RunSeeds a single group.
		problem:   Consensus,
		algorithm: Flooding,
		minLanes:  1,
		group: func(sp Spec, k *groupKey) {
			in := make([]byte, len(sp.BoolInputs))
			for i, b := range sp.BoolInputs {
				if b {
					in[i] = 1
				}
			}
			k.inputs = string(in)
		},
		build: buildSlicedFlooding,
	},
	{
		// Gossip's overlays are derived from (seed, topology family,
		// degree), so those fields join the key; its rumor values stay
		// per-lane (first-write-wins updates make values
		// behaviour-independent). A lone lane gains nothing from the
		// word engine (its n² plane setup and n-word merges serve one
		// replica), so the scalar path is both faster and trivially
		// exact.
		problem:   Gossip,
		algorithm: GossipExpander,
		minLanes:  2,
		group: func(sp Spec, k *groupKey) {
			k.seed = sp.Seed
			k.topology = sp.Topology
			k.implicit = sp.Implicit
			k.degree = sp.Degree
		},
		build: buildSlicedGossip,
	},
}

// stackOf is the stack lookup: the table entry that runs sp on the
// sliced engine, or nil when sp runs scalar. A spec slices when it is a
// multi-port run of a listed stack under a declarative fault model
// (FaultModel.Declarative) with no Observer; adaptive adversaries and
// the remaining protocol stacks keep the scalar engine.
func stackOf(sp Spec) *slicedStack {
	if sp.Port != MultiPort || !sp.Fault.Declarative() || sp.Observer != nil {
		return nil
	}
	for i := range slicedStacks {
		if st := &slicedStacks[i]; st.problem == sp.Problem && st.algorithm == sp.Algorithm {
			return st
		}
	}
	return nil
}

// sliceable reports whether a spec can run on the bit-sliced engine.
func sliceable(sp Spec) bool { return stackOf(sp) != nil }

// groupKey identifies specs that may share one sliced run: the lanes
// of a run share the stack, the size and the round budget, plus the
// fields the stack's group function adds; the fault model and seed are
// per-lane wherever the system does not depend on them.
type groupKey struct {
	stack       *slicedStack
	n, t, slack int
	inputs      string
	seed        uint64
	topology    TopologyKind
	implicit    bool
	degree      int
}

// keyOf returns the group key of a sliceable spec.
func keyOf(sp Spec) groupKey {
	k := groupKey{stack: stackOf(sp), n: sp.N, t: sp.T, slack: slackOf(sp)}
	k.stack.group(sp, &k)
	return k
}

// RunSeeds runs one spec under many seeds — the multi-seed sweep and
// benchmark path. Seeds that share the spec's shape ride the sliced
// engine 64 to a machine word; the rest (non-sliceable specs, escaped
// lanes) fall back to Run. reports[i] and errs[i] belong to seeds[i];
// exactly one of them is non-nil.
func RunSeeds(sp Spec, seeds []uint64) ([]*Report, []error) {
	specs := make([]Spec, len(seeds))
	for i, seed := range seeds {
		specs[i] = sp
		specs[i].Seed = seed
	}
	return ExecuteBatch(specs)
}

// ExecuteBatch runs a batch of specs, slicing where possible: sliceable
// specs of the same shape are grouped into 64-lane sliced engine runs,
// everything else runs through Run. Results are returned in input order
// and are identical — reports and errors both — to running each spec
// individually through Run.
func ExecuteBatch(sps []Spec) ([]*Report, []error) {
	reports := make([]*Report, len(sps))
	errs := make([]error, len(sps))

	var scalar []int
	groups := make(map[groupKey][]int)
	var order []groupKey
	for i, sp := range sps {
		if !sliceable(sp) || sp.check() != nil {
			scalar = append(scalar, i)
			continue
		}
		k := keyOf(sp)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}

	if len(order) > 0 {
		rt := runtimes.Get().(*sim.Runtime)
		for _, k := range order {
			idx := groups[k]
			if len(idx) < k.stack.minLanes {
				scalar = append(scalar, idx...)
				continue
			}
			for base := 0; base < len(idx); base += sim.MaxLanes {
				end := base + sim.MaxLanes
				if end > len(idx) {
					end = len(idx)
				}
				runSlicedChunk(rt, k.stack, sps, idx[base:end], reports, errs)
			}
		}
		runtimes.Put(rt)
	}

	runScalar(sps, scalar, reports, errs)
	return reports, errs
}

// runScalar runs the given spec indices through Run,
// fanned across GOMAXPROCS workers (each worker lands on its own
// pooled Runtime via Execute). Runs are independent and deterministic,
// so scheduling cannot change any result.
func runScalar(sps []Spec, idx []int, reports []*Report, errs []error) {
	if len(idx) == 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(idx) {
		workers = len(idx)
	}
	if workers <= 1 {
		for _, i := range idx {
			reports[i], errs[i] = Run(sps[i])
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				reports[i], errs[i] = Run(sps[i])
			}
		}()
	}
	for _, i := range idx {
		next <- i
	}
	close(next)
	wg.Wait()
}

// runSlicedChunk executes up to 64 same-shape specs of stack st as the
// lanes of one sliced engine run and finishes each lane into its spec's
// report. Any failure to slice — a fault without a declarative crash
// plan, an escaped lane, a topology that cannot be built — falls back
// to Run for the affected specs, preserving exact scalar results.
func runSlicedChunk(rt *sim.Runtime, st *slicedStack, sps []Spec, idx []int, reports []*Report, errs []error) {
	fallback := func(specs []int) {
		for _, i := range specs {
			reports[i], errs[i] = Run(sps[i])
		}
	}

	shape := sps[idx[0]]
	// The chunk reports through the first spec's tracer: lanes of one
	// group share the run, so per-lane attribution is not meaningful.
	tr := shape.Tracer
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	faults := make([]sim.LinkFault, len(idx))
	sys, finish, err := st.build(shape, len(idx), func(little int) (int, error) {
		maxDelay := 0
		for lane, i := range idx {
			sp := sps[i]
			f, err := sp.Fault.LinkFault(sp.N, sp.T, little, sp.Seed)
			if err != nil {
				return 0, err
			}
			faults[lane] = f
			if lf, ok := f.(sim.LinkFilter); ok && lf.MaxDelay() > maxDelay {
				maxDelay = lf.MaxDelay()
			}
		}
		return maxDelay, nil
	})
	if err != nil {
		fallback(idx)
		return
	}
	if tr != nil {
		tr.StageDuration(obs.StageSetup, time.Since(t0))
	}
	res, err := rt.RunSliced(sim.SlicedConfig{
		System:    sys,
		Lanes:     len(idx),
		MaxRounds: sys.ScheduleLength() + slackOf(shape),
		Faults:    faults,
		Tracer:    tr,
	})
	if err != nil {
		// ErrNotSliceable and config errors: the scalar engine is the
		// authority on what the caller should see.
		fallback(idx)
		return
	}

	var t1 time.Time
	if tr != nil {
		t1 = time.Now()
	}
	var escaped []int
	for lane, i := range idx {
		lr := &res.Lanes[lane]
		switch {
		case lr.Escaped:
			escaped = append(escaped, i)
		case lr.Err != nil:
			errs[i] = lr.Err
		default:
			sp := sps[i]
			rep := newReport(sp, Metrics{
				Rounds:   lr.Metrics.Rounds,
				Messages: lr.Metrics.Messages,
				Bits:     lr.Metrics.Bits,
			}, lr.Crashed)
			finish(sp, lane, lr, rep)
			reports[i] = rep
		}
	}
	if tr != nil {
		tr.StageDuration(obs.StageMerge, time.Since(t1))
	}
	fallback(escaped)
}

// buildSlicedFlooding builds a flooding chunk. Flooding has no expander
// overlay, so its fault layers get little = 0 — exactly what Run passes
// for this stack. Its lanes are judged by Run's consensus rules over
// the lane's decision bits.
func buildSlicedFlooding(shape Spec, lanes int, faults func(int) (int, error)) (slicedSystem, laneFinish, error) {
	if _, err := faults(0); err != nil {
		return nil, nil, err
	}
	sys := consensus.NewSlicedFlooding(shape.N, shape.T, lanes, shape.BoolInputs)
	return sys, func(sp Spec, lane int, lr *sim.LaneResult, rep *Report) {
		bit := uint64(1) << lane
		decisions := make([]int, sp.N)
		for i := range decisions {
			decided, value := sys.DecisionLanes(i)
			decisions[i] = decisionOf(value&bit != 0, decided&bit != 0)
		}
		rep.Consensus = judgeConsensus(decisions, sp.BoolInputs, lr.Crashed)
	}, nil
}

// buildSlicedGossip builds a gossip chunk: the lanes share one expander
// topology (identical by group key) and one gossip.SlicedGossip
// machine, with per-lane fault layers. A lane's report carries the
// per-part attribution the scalar PartLabeler would have recorded,
// reconstructed from the per-round series, and extant views whose
// rumor values come from the lane's inputs — first-write-wins makes
// every copy of node j's pair equal to j's own rumor — judged by Run's
// completeness rule.
func buildSlicedGossip(shape Spec, lanes int, faults func(int) (int, error)) (slicedSystem, laneFinish, error) {
	top, err := shape.newTopology(shape.N, shape.T)
	if err != nil {
		return nil, nil, err
	}
	maxDelay, err := faults(top.L)
	if err != nil {
		return nil, nil, err
	}
	sys, err := gossip.NewSlicedGossip(top, lanes, maxDelay)
	if err != nil {
		return nil, nil, err
	}
	return sys, func(sp Spec, lane int, lr *sim.LaneResult, rep *Report) {
		// The scalar engine labels a round's traffic with the schedule
		// part at the accounting point; rounds without traffic
		// contribute nothing, and a run with no labeled traffic leaves
		// PerPart nil (toMetrics copies only non-empty maps).
		for r, c := range lr.Metrics.PerRoundMessages {
			if c == 0 {
				continue
			}
			if label := sys.PartAt(r); label != "" {
				if rep.Metrics.PerPart == nil {
					rep.Metrics.PerPart = make(map[string]int64)
				}
				rep.Metrics.PerPart[label] += c
			}
		}

		bit := uint64(1) << lane
		views := make([]map[int]uint64, sp.N)
		for i := range views {
			if lr.Crashed.Contains(i) {
				continue
			}
			// Pre-size the view to its exact cardinality: the views
			// carry n entries each at full propagation, and letting the
			// map grow incrementally costs more than the whole sliced
			// run.
			count := 0
			for j := 0; j < sp.N; j++ {
				if sys.Known(i, j)&bit != 0 {
					count++
				}
			}
			view := make(map[int]uint64, count)
			for j := 0; j < sp.N; j++ {
				if sys.Known(i, j)&bit != 0 {
					view[j] = sp.Rumors[j]
				}
			}
			views[i] = view
		}
		rep.Gossip = judgeGossip(views, lr.Crashed)
	}, nil
}
