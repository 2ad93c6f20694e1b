package scenario

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lineartime/internal/bitset"
	"lineartime/internal/byzantine"
	"lineartime/internal/checkpoint"
	"lineartime/internal/consensus"
	"lineartime/internal/expander"
	"lineartime/internal/gossip"
	"lineartime/internal/majority"
	"lineartime/internal/obs"
	"lineartime/internal/sim"
	"lineartime/internal/singleport"
)

// defaultRoundSlack is added to a protocol's schedule length to form
// the engine round budget, absorbing the bounded overrun the paper's
// termination arguments allow.
const defaultRoundSlack = 8

// ErrSinglePortParallel reports a parallel dispatch of a single-port
// scenario; the sharded engine is multi-port only.
var ErrSinglePortParallel = errors.New("scenario: parallel execution is multi-port only")

// runtimes pools sim run arenas across Execute calls: a sweep worker
// or experiment loop that executes many scenarios back to back lands
// on a warm Runtime (grown scratch buffers, parked parallel workers)
// instead of rebuilding ~MBs of engine state per run. sync.Pool's
// per-P caching gives each concurrent sweep worker its own arena.
var runtimes = sync.Pool{New: func() any { return sim.NewRuntime() }}

// Execute is the single engine choke point: every simulator run in the
// repository outside internal/sim — the public API, the registry
// experiments, the commands, the lower-bound constructions — dispatches
// through here, so the sequential/parallel decision and its
// constraints live in one place. Runs execute on a pooled run arena;
// the returned Result is detached from it (Clone), so callers may
// retain it freely.
func Execute(cfg sim.Config, p Parallelism) (*sim.Result, error) {
	rt := runtimes.Get().(*sim.Runtime)
	defer runtimes.Put(rt)
	var res *sim.Result
	var err error
	if p.Enabled {
		if cfg.SinglePort {
			return nil, ErrSinglePortParallel
		}
		res, err = rt.RunParallel(cfg, p.Workers)
	} else {
		res, err = rt.Run(cfg)
	}
	if err != nil {
		return nil, err
	}
	return res.Clone(), nil
}

// Run materializes the spec into a sim.Config, executes it through
// Execute, and returns the unified report.
func Run(sp Spec) (*Report, error) {
	// Run reports its own stages around the engine's: the spec
	// materialization (topology + protocol stack + fault layer) counts
	// as setup, the outcome evaluation as decode. The engine reports
	// its internal setup/rounds split through the same tracer.
	tr := sp.Tracer
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	if err := sp.check(); err != nil {
		return nil, err
	}
	sys, err := materialize(sp)
	if err != nil {
		return nil, err
	}
	fault, err := sp.Fault.LinkFault(sp.N, sp.T, sys.little, sp.Seed)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.StageDuration(obs.StageSetup, time.Since(t0))
	}
	res, err := Execute(sim.Config{
		Protocols:   sys.ps,
		PartLabeler: partLabelerOf(sys.ps),
		Fault:       fault,
		Byzantine:   sys.byz,
		MaxRounds:   sys.schedule + slackOf(sp),
		SinglePort:  sys.singlePort,
		Observer:    sp.Observer,
		Tracer:      tr,
	}, sp.Exec)
	if err != nil {
		return nil, err
	}
	var t1 time.Time
	if tr != nil {
		t1 = time.Now()
	}
	rep := newReport(sp, toMetrics(res), res.Crashed)
	sys.finish(res, rep)
	if tr != nil {
		tr.StageDuration(obs.StageDecode, time.Since(t1))
	}
	return rep, nil
}

// check holds Run's preconditions in the order Run reports them: a
// positive n, non-negative t, degree and round slack, a known
// topology family, a valid fault model, then the per-problem input
// length. ExecuteBatch (and so RunSeeds) routes through it too, so a
// spec Run would reject never slices and fails with Run's own error.
func (sp Spec) check() error {
	if sp.N <= 0 {
		return fmt.Errorf("scenario: n=%d must be positive", sp.N)
	}
	if sp.T < 0 {
		return fmt.Errorf("scenario: t=%d must be non-negative", sp.T)
	}
	if sp.Degree < 0 {
		return fmt.Errorf("scenario: degree=%d must be non-negative", sp.Degree)
	}
	if sp.RoundSlack < 0 {
		return fmt.Errorf("scenario: round_slack=%d must be non-negative", sp.RoundSlack)
	}
	if _, err := sp.topologyMode(); err != nil {
		return err
	}
	if err := sp.Fault.validate(sp); err != nil {
		return err
	}
	var what string
	var got int
	switch sp.Problem {
	case Consensus, AlmostEverywhere, SpreadCommonValue:
		what, got = "inputs", len(sp.BoolInputs)
	case MajorityVote:
		what, got = "votes", len(sp.BoolInputs)
	case Gossip:
		what, got = "rumors", len(sp.Rumors)
	case ByzantineConsensus:
		what, got = "inputs", len(sp.Values)
	default:
		return nil
	}
	if got != sp.N {
		return fmt.Errorf("scenario: %d %s for n=%d", got, what, sp.N)
	}
	return nil
}

// slackOf resolves the effective round slack of a spec.
func slackOf(sp Spec) int {
	if sp.RoundSlack > 0 {
		return sp.RoundSlack
	}
	return defaultRoundSlack
}

// newReport fills the head every report shares — the spec's identity,
// the run's metrics and its crash list — for the outcome judges to
// complete.
func newReport(sp Spec, m Metrics, crashed *bitset.Set) *Report {
	return &Report{
		Scenario:  sp.Name,
		Problem:   sp.Problem,
		Algorithm: sp.Algorithm,
		Port:      sp.Port,
		N:         sp.N,
		T:         sp.T,
		Metrics:   m,
		Crashed:   crashed.Elements(),
	}
}

// decisionOf encodes one node's consensus decision as a
// ConsensusOutcome entry: 0 or 1, or -1 when it did not decide.
func decisionOf(v, ok bool) int {
	switch {
	case !ok:
		return -1
	case v:
		return 1
	default:
		return 0
	}
}

// judgeConsensus applies the §2 conditions to one run's decisions
// (decisionOf per node): every surviving node decided the same value
// (agreement), and that value is some node's input (validity). It
// takes decisions as the outcome's Decisions, with crashed nodes set
// to -1.
func judgeConsensus(decisions []int, inputs []bool, crashed *bitset.Set) *ConsensusOutcome {
	out := &ConsensusOutcome{Decisions: decisions, Agreement: true, Validity: true}
	any0, any1 := false, false
	for _, in := range inputs {
		if in {
			any1 = true
		} else {
			any0 = true
		}
		if any0 && any1 {
			break
		}
	}
	first := -1
	for i, d := range decisions {
		if crashed.Contains(i) {
			decisions[i] = -1
			continue
		}
		if d < 0 {
			out.Agreement = false
			continue
		}
		if first < 0 {
			first = d
		} else if first != d {
			out.Agreement = false
		}
		if (d == 1 && !any1) || (d == 0 && !any0) {
			out.Validity = false
		}
	}
	return out
}

// judgeGossip applies the §5 completeness condition to one run's
// extant views (views[i] is surviving node i's rumor map, nil for
// crashed nodes): every surviving view holds every surviving node's
// rumor. A view holds all survivors exactly when it holds as many of
// them as there are, so only a view short of all n nodes costs a
// lookup per crashed node, and none costs one per node pair.
func judgeGossip(views []map[int]uint64, crashed *bitset.Set) *GossipOutcome {
	out := &GossipOutcome{Extant: views, Complete: true}
	n := len(views)
	var dead []int
	for i, view := range views {
		if len(view) == n || crashed.Contains(i) {
			continue
		}
		if dead == nil {
			dead = crashed.Elements()
		}
		held := len(view)
		for _, j := range dead {
			if _, ok := view[j]; ok {
				held--
			}
		}
		if held != n-len(dead) {
			out.Complete = false
			break
		}
	}
	return out
}

func toMetrics(res *sim.Result) Metrics {
	m := Metrics{
		Rounds:      res.Metrics.Rounds,
		Messages:    res.Metrics.Messages,
		Bits:        res.Metrics.Bits,
		ByzMessages: res.Metrics.ByzMessages,
		ByzBits:     res.Metrics.ByzBits,
	}
	if len(res.Metrics.PerPart) > 0 {
		m.PerPart = make(map[string]int64, len(res.Metrics.PerPart))
		for k, v := range res.Metrics.PerPart {
			m.PerPart[k] = v
		}
	}
	return m
}

// partLabelerOf returns the schedule labeler shared by a run's
// protocols, if they provide one (schedules are identical across
// nodes, so the first protocol's labeler covers the system).
func partLabelerOf(ps []sim.Protocol) func(int) string {
	if len(ps) == 0 {
		return nil
	}
	if pl, ok := ps[0].(interface{ PartAt(round int) string }); ok {
		return pl.PartAt
	}
	return nil
}

// system is a materialized scenario: the protocol stack plus the hooks
// the runner needs to configure the engine and evaluate the outcome.
type system struct {
	ps         []sim.Protocol
	schedule   int
	singlePort bool
	byz        *bitset.Set
	// little is the expander topology's little-node count (0 when the
	// scenario has no expander overlay), feeding TargetLittleCrashes.
	little int
	// finish evaluates the problem-specific outcome into the report.
	finish func(res *sim.Result, rep *Report)
}

// materialize builds the protocol stack for the spec.
func materialize(sp Spec) (*system, error) {
	switch sp.Problem {
	case Consensus:
		return materializeConsensus(sp)
	case Gossip:
		return materializeGossip(sp)
	case Checkpointing:
		return materializeCheckpointing(sp)
	case ByzantineConsensus:
		return materializeByzantine(sp)
	case AlmostEverywhere, SpreadCommonValue:
		return materializeSubroutine(sp)
	case MajorityVote:
		return materializeMajority(sp)
	default:
		return nil, fmt.Errorf("scenario: unknown problem %v", sp.Problem)
	}
}

// topologyMode resolves the spec's Topology/Implicit fields into the
// expander construction mode threaded through every overlay of the
// run. Implicit implies the shift family — it is the only locally
// computable one.
func (sp Spec) topologyMode() (expander.Mode, error) {
	switch sp.Topology {
	case TopologyRandomRegular:
		if sp.Implicit {
			return expander.Mode{Family: expander.FamilyShift, Implicit: true}, nil
		}
		return expander.Mode{}, nil
	case TopologyShift:
		return expander.Mode{Family: expander.FamilyShift, Implicit: sp.Implicit}, nil
	default:
		return expander.Mode{}, fmt.Errorf("scenario: unknown topology family %q", sp.Topology)
	}
}

func (sp Spec) topologyOptions() (consensus.TopologyOptions, error) {
	mode, err := sp.topologyMode()
	if err != nil {
		return consensus.TopologyOptions{}, err
	}
	return consensus.TopologyOptions{Seed: sp.Seed, Degree: sp.Degree, Mode: mode}, nil
}

// newTopology builds the t < n/5 expander topology for the spec.
func (sp Spec) newTopology(n, t int) (*consensus.Topology, error) {
	opts, err := sp.topologyOptions()
	if err != nil {
		return nil, err
	}
	return consensus.NewTopology(n, t, opts)
}

// newManyTopology builds the any-t topology for the spec.
func (sp Spec) newManyTopology(n, t int) (*consensus.ManyTopology, error) {
	opts, err := sp.topologyOptions()
	if err != nil {
		return nil, err
	}
	return consensus.NewManyTopology(n, t, opts)
}

// boolDecider is the decision surface shared by the consensus
// protocols.
type boolDecider interface {
	Decision() (bool, bool)
}

func materializeConsensus(sp Spec) (*system, error) {
	n, t := sp.N, sp.T
	inputs := sp.BoolInputs
	ps := make([]sim.Protocol, n)
	ds := make([]boolDecider, n)
	sys := &system{ps: ps}

	switch sp.Algorithm {
	case FewCrashes:
		top, err := sp.newTopology(n, t)
		if err != nil {
			return nil, err
		}
		sys.little = top.L
		for i := 0; i < n; i++ {
			m := consensus.NewFewCrashes(i, top, inputs[i])
			ps[i], ds[i] = m, m
			sys.schedule = m.ScheduleLength()
		}
	case ManyCrashes:
		top, err := sp.newManyTopology(n, t)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			m := consensus.NewManyCrashes(i, top, inputs[i])
			ps[i], ds[i] = m, m
			sys.schedule = m.ScheduleLength()
		}
	case Flooding:
		for i := 0; i < n; i++ {
			m := consensus.NewFlooding(i, n, t, inputs[i])
			ps[i], ds[i] = m, m
			sys.schedule = m.ScheduleLength()
		}
	case SinglePortLinear:
		top, err := sp.newTopology(n, t)
		if err != nil {
			return nil, err
		}
		sys.little = top.L
		for i := 0; i < n; i++ {
			m := singleport.New(i, top, inputs[i])
			ps[i], ds[i] = m, m
			sys.schedule = m.ScheduleLength()
		}
		sys.singlePort = true
	case EarlyStopping:
		for i := 0; i < n; i++ {
			m := consensus.NewEarlyStopping(i, n, t, inputs[i])
			ps[i], ds[i] = m, m
			sys.schedule = m.MaxRounds()
		}
	case RotatingCoordinator:
		for i := 0; i < n; i++ {
			m := consensus.NewRotatingCoordinator(i, n, t, inputs[i])
			ps[i], ds[i] = m, m
			sys.schedule = m.ScheduleLength()
		}
	default:
		return nil, fmt.Errorf("scenario: unknown consensus algorithm %q", sp.Algorithm)
	}

	sys.finish = func(res *sim.Result, rep *Report) {
		decisions := make([]int, n)
		for i, d := range ds {
			decisions[i] = decisionOf(d.Decision())
		}
		rep.Consensus = judgeConsensus(decisions, inputs, res.Crashed)
	}
	return sys, nil
}

func materializeGossip(sp Spec) (*system, error) {
	n, t := sp.N, sp.T
	rumors := sp.Rumors
	ps := make([]sim.Protocol, n)
	extants := make([]func() *gossip.ExtantSet, n)
	sys := &system{ps: ps}

	switch {
	case sp.Algorithm == GossipAllToAll:
		for i := 0; i < n; i++ {
			m := gossip.NewAllToAll(i, n, gossip.Rumor(rumors[i]))
			ps[i] = m
			extants[i] = m.Extant
			sys.schedule = m.ScheduleLength()
		}
	case sp.Algorithm == GossipExpander && sp.Port == SinglePort:
		top, err := sp.newTopology(n, t)
		if err != nil {
			return nil, err
		}
		sys.little = top.L
		sched, err := singleport.NewGossipSchedule(top, sp.Seed)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			m := singleport.NewSPGossip(i, sched, gossip.Rumor(rumors[i]))
			ps[i] = m
			extants[i] = m.Extant
			sys.schedule = m.ScheduleLength()
		}
		sys.singlePort = true
	case sp.Algorithm == GossipExpander:
		top, err := sp.newTopology(n, t)
		if err != nil {
			return nil, err
		}
		sys.little = top.L
		for i := 0; i < n; i++ {
			m := gossip.New(i, top, gossip.Rumor(rumors[i]))
			ps[i] = m
			extants[i] = m.Extant
			sys.schedule = m.ScheduleLength()
		}
	default:
		return nil, fmt.Errorf("scenario: unknown gossip algorithm %q", sp.Algorithm)
	}

	sys.finish = func(res *sim.Result, rep *Report) {
		views := make([]map[int]uint64, n)
		for i := range views {
			if res.Crashed.Contains(i) {
				continue
			}
			e := extants[i]()
			view := make(map[int]uint64, e.Count())
			e.Known().ForEach(func(j int) { view[j] = uint64(e.Rumor(j)) })
			views[i] = view
		}
		rep.Gossip = judgeGossip(views, res.Crashed)
	}
	return sys, nil
}

func materializeCheckpointing(sp Spec) (*system, error) {
	n, t := sp.N, sp.T
	ps := make([]sim.Protocol, n)
	outs := make([]func() (*bitset.Set, bool), n)
	sys := &system{ps: ps}

	switch {
	case sp.Algorithm == CheckpointDirect:
		for i := 0; i < n; i++ {
			m := checkpoint.NewDirect(i, n, t)
			ps[i] = m
			outs[i] = m.Decision
			sys.schedule = m.ScheduleLength()
		}
	case sp.Algorithm == CheckpointExpander && sp.Port == SinglePort:
		top, err := sp.newTopology(n, t)
		if err != nil {
			return nil, err
		}
		sys.little = top.L
		sched, err := singleport.NewGossipSchedule(top, sp.Seed)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			m := singleport.NewSPCheckpointing(i, sched)
			ps[i] = m
			outs[i] = m.Decision
			sys.schedule = m.ScheduleLength()
		}
		sys.singlePort = true
	case sp.Algorithm == CheckpointExpander:
		top, err := sp.newTopology(n, t)
		if err != nil {
			return nil, err
		}
		sys.little = top.L
		for i := 0; i < n; i++ {
			m := checkpoint.New(i, top)
			ps[i] = m
			outs[i] = m.Decision
			sys.schedule = m.ScheduleLength()
		}
	default:
		return nil, fmt.Errorf("scenario: unknown checkpointing algorithm %q", sp.Algorithm)
	}

	sys.finish = func(res *sim.Result, rep *Report) {
		out := &CheckpointOutcome{Agreement: true}
		var agreed *bitset.Set
		for i := 0; i < n; i++ {
			if res.Crashed.Contains(i) {
				continue
			}
			set, ok := outs[i]()
			if !ok {
				out.Agreement = false
				continue
			}
			if agreed == nil {
				agreed = set
			} else if !agreed.Equal(set) {
				out.Agreement = false
			}
		}
		if agreed != nil && out.Agreement {
			out.ExtantSet = agreed.Elements()
		}
		rep.Checkpoint = out
	}
	return sys, nil
}

// uintDecider is the decision surface of the Byzantine protocols.
type uintDecider interface {
	Decision() (uint64, bool)
}

func materializeByzantine(sp Spec) (*system, error) {
	n, t := sp.N, sp.T
	inputs := sp.Values
	mode, err := sp.topologyMode()
	if err != nil {
		return nil, err
	}
	cfg, err := byzantine.NewConfigMode(n, t, sp.Seed, mode)
	if err != nil {
		return nil, err
	}
	corrupted := make(map[int]bool, len(sp.Fault.Corrupted))
	for _, id := range sp.Fault.Corrupted {
		corrupted[id] = true
	}

	ps := make([]sim.Protocol, n)
	ds := make([]uintDecider, n)
	byz := bitset.New(n)
	baseline := sp.Algorithm == DolevStrongAll
	if !baseline && sp.Algorithm != ABConsensus {
		return nil, fmt.Errorf("scenario: unknown byzantine algorithm %q", sp.Algorithm)
	}
	for i := 0; i < n; i++ {
		if corrupted[i] {
			byz.Add(i)
			switch sp.Fault.Strategy {
			case Equivocate:
				ps[i] = byzantine.NewEquivocator(i, cfg, cfg.Authority.Signer(i), inputs[i], inputs[i]+1)
			case Spam:
				ps[i] = byzantine.NewSpammer(i, cfg, cfg.Authority.Signer(i))
			default:
				ps[i] = byzantine.NewSilent(cfg)
			}
			continue
		}
		if baseline {
			m := byzantine.NewDSAll(i, cfg, cfg.Authority.Signer(i), inputs[i])
			ps[i], ds[i] = m, m
		} else {
			m := byzantine.NewABConsensus(i, cfg, cfg.Authority.Signer(i), inputs[i])
			ps[i], ds[i] = m, m
		}
	}
	sys := &system{ps: ps, schedule: cfg.ScheduleLength(), byz: byz}
	sys.finish = func(res *sim.Result, rep *Report) {
		out := &ByzantineOutcome{
			L:         cfg.L,
			Decisions: make([]uint64, n),
			Decided:   make([]bool, n),
			Agreement: true,
		}
		var agreed *uint64
		for i := 0; i < n; i++ {
			if ds[i] == nil {
				continue
			}
			v, ok := ds[i].Decision()
			if !ok {
				out.Agreement = false
				continue
			}
			out.Decisions[i] = v
			out.Decided[i] = true
			if agreed == nil {
				agreed = &v
			} else if *agreed != v {
				out.Agreement = false
			}
		}
		rep.Byzantine = out
	}
	return sys, nil
}

// subroutineDecider is the decision surface of the §3/§4 subroutines.
type subroutineDecider interface {
	Decided() (value, ok bool)
}

// materializeSubroutine builds the §3 AEA or the §4 SCV stack
// standalone: both run on the t < n/5 expander and report who decided.
func materializeSubroutine(sp Spec) (*system, error) {
	n, t := sp.N, sp.T
	top, err := sp.newTopology(n, t)
	if err != nil {
		return nil, err
	}
	ps := make([]sim.Protocol, n)
	ds := make([]subroutineDecider, n)
	sys := &system{ps: ps, little: top.L}
	for i := 0; i < n; i++ {
		if sp.Problem == AlmostEverywhere {
			m := consensus.NewAEA(i, top, sp.BoolInputs[i], 0, true)
			ps[i], ds[i] = m, m
			sys.schedule = m.ScheduleLength()
		} else {
			m := consensus.NewSCV(i, top, sp.BoolInputs[i], true, 0, true)
			ps[i], ds[i] = m, m
			sys.schedule = m.ScheduleLength()
		}
	}
	sys.finish = func(res *sim.Result, rep *Report) {
		out := &SubroutineOutcome{AllDecided: true}
		for i, d := range ds {
			_, ok := d.Decided()
			if !ok {
				out.AllDecided = false
			}
			if ok && !res.Crashed.Contains(i) {
				out.Deciders++
			}
		}
		rep.Subroutine = out
	}
	return sys, nil
}

func materializeMajority(sp Spec) (*system, error) {
	n, t := sp.N, sp.T
	votes := sp.BoolInputs
	top, err := sp.newTopology(n, t)
	if err != nil {
		return nil, err
	}
	ps := make([]sim.Protocol, n)
	ms := make([]*majority.Vote, n)
	sys := &system{ps: ps, little: top.L}
	for i := 0; i < n; i++ {
		ms[i] = majority.New(i, top, votes[i])
		ps[i] = ms[i]
		sys.schedule = ms[i].ScheduleLength()
	}
	sys.finish = func(res *sim.Result, rep *Report) {
		out := &MajorityOutcome{Agreement: true}
		first := false
		for i := 0; i < n; i++ {
			if res.Crashed.Contains(i) {
				continue
			}
			verdict, yes, ballots, ok := ms[i].Verdict()
			if !ok {
				out.Agreement = false
				continue
			}
			if !first {
				out.YesWins = verdict == majority.Yes
				out.YesVotes = yes
				out.Ballots = ballots
				first = true
				continue
			}
			if (verdict == majority.Yes) != out.YesWins ||
				yes != out.YesVotes || ballots != out.Ballots {
				out.Agreement = false
			}
		}
		rep.Majority = out
	}
	return sys, nil
}
