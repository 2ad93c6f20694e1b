package scenario

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"lineartime/internal/obs"
	"lineartime/internal/sim"
)

// sameOutcome pins a batch result against its scalar counterpart:
// identical report (DeepEqual) and identical error text.
func sameOutcome(t *testing.T, tag string, wantRep *Report, wantErr error, gotRep *Report, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) ||
		(wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: error diverged:\nscalar %v\nbatch  %v", tag, wantErr, gotErr)
	}
	if !reflect.DeepEqual(wantRep, gotRep) {
		t.Fatalf("%s: report diverged:\nscalar %+v\nbatch  %+v", tag, wantRep, gotRep)
	}
}

// TestExecuteBatchMatchesScalarAcrossRegistry runs every registry row —
// protocol stacks, the E12 fault rows, the E13 chaos rows — under
// several seeds through one mixed ExecuteBatch call and pins every
// report byte-identical to the scalar Run. Sliceable rows get the
// full 64-seed lane width (the 64-for-1 oracle: one sliced run checks
// a word of seeds at once); the rest keep a 3-seed spot check and take
// the scalar fallback inside the same batch.
func TestExecuteBatchMatchesScalarAcrossRegistry(t *testing.T) {
	var specs []Spec
	var tags []string
	for _, d := range All() {
		n, tt := 50, 8
		if d.Problem == ByzantineConsensus {
			tt = 4
		}
		seeds := uint64(3)
		if sliceable(d.Spec(n, tt, 1)) {
			seeds = 64
		}
		for seed := uint64(1); seed <= seeds; seed++ {
			specs = append(specs, d.Spec(n, tt, seed))
			tags = append(tags, fmt.Sprintf("%s seed=%d", d.Name, seed))
		}
	}
	reports, errs := ExecuteBatch(specs)
	if len(reports) != len(specs) || len(errs) != len(specs) {
		t.Fatalf("batch returned %d reports / %d errors for %d specs", len(reports), len(errs), len(specs))
	}
	for i, sp := range specs {
		wantRep, wantErr := Run(sp)
		sameOutcome(t, tags[i], wantRep, wantErr, reports[i], errs[i])
	}
}

// TestRunSeedsMatchesScalarPerLane pins the genuinely sliced path at
// full width: the flooding comparator under every sliceable fault
// model, 64 seeds per model, each lane byte-identical to its scalar
// run. The per-seed adversaries genuinely differ (random crashes,
// omission patterns, delays), so the lanes diverge in crash sets,
// message counts and rounds while staying pinned.
func TestRunSeedsMatchesScalarPerLane(t *testing.T) {
	const n, tt = 48, 8
	faults := []FaultModel{
		{Kind: NoFailures},
		{Kind: CrashSchedule, Schedule: []CrashEvent{
			{Node: 0, Round: 0, Keep: 0},
			{Node: 5, Round: 1, Keep: 2},
			{Node: 9, Round: 3, Keep: -1},
		}},
		{Kind: RandomCrashes, Count: tt, Horizon: tt + 2},
		{Kind: CascadeCrashes, Count: tt, Keep: 1},
		{Kind: TargetLittleCrashes, Count: tt},
		{Kind: OmissionFaults, Rate: 0.15},
		{Kind: PartitionWindow, WindowStart: 1, WindowEnd: 3},
		{Kind: DelayedLinks, Delay: 2},
	}
	base := MustLookup("consensus/flooding").Spec(n, tt, 1)
	for _, f := range faults {
		f := f
		t.Run(f.Kind.String(), func(t *testing.T) {
			sp := base
			sp.Fault = f
			if !sliceable(sp) {
				t.Fatalf("flooding under %v must be sliceable", f.Kind)
			}
			seeds := make([]uint64, 64)
			for i := range seeds {
				seeds[i] = uint64(i + 1)
			}
			reports, errs := RunSeeds(sp, seeds)
			for i, seed := range seeds {
				lane := sp
				lane.Seed = seed
				wantRep, wantErr := Run(lane)
				sameOutcome(t, fmt.Sprintf("seed %d", seed), wantRep, wantErr, reports[i], errs[i])
			}
		})
	}
}

// TestGossipBatchMatchesScalarPerLane pins the sliced gossip path at
// full width: every sliceable gossip registry row (the chaos row
// included), 64 lanes sharing the row's topology seed with per-lane
// fault models cycling through the whole declarative template —
// mixed-kind groups, so crash schedules, omission patterns, partitions
// and delays ride one engine run together — each lane byte-identical
// to its scalar run. One lane per row is additionally pinned against
// the parallel scalar engine, covering all three call sites.
func TestGossipBatchMatchesScalarPerLane(t *testing.T) {
	const n, tt = 60, 10
	template := []FaultModel{
		{Kind: NoFailures},
		{Kind: CrashSchedule, Schedule: []CrashEvent{
			{Node: 0, Round: 0, Keep: 0},
			{Node: 5, Round: 1, Keep: 2},
			{Node: 9, Round: 3, Keep: -1},
		}},
		{Kind: RandomCrashes, Count: tt, Horizon: tt + 2},
		{Kind: CascadeCrashes, Count: tt, Keep: 1},
		{Kind: TargetLittleCrashes, Count: tt},
		{Kind: OmissionFaults, Rate: 0.15},
		{Kind: PartitionWindow, WindowStart: 1, WindowEnd: 3},
		{Kind: DelayedLinks, Delay: 2},
	}
	rows := []string{
		"gossip/expander",
		"gossip/expander/omission",
		"gossip/expander/delay",
		"gossip/expander/chaos",
	}
	for _, name := range rows {
		t.Run(name, func(t *testing.T) {
			base := MustLookup(name).Spec(n, tt, 1)
			if !sliceable(base) {
				t.Fatalf("%s must be sliceable", name)
			}
			specs := make([]Spec, 64)
			for i := range specs {
				specs[i] = base
				f := template[i%len(template)]
				// Distinct adversary seeds keep the lanes genuinely
				// divergent while the topology seed stays shared.
				f.Seed = uint64(900 + i)
				specs[i].Fault = f
				if !sliceable(specs[i]) || keyOf(specs[i]) != keyOf(base) {
					t.Fatalf("lane %d must share the row's sliced group", i)
				}
			}
			reports, errs := ExecuteBatch(specs)
			for i, sp := range specs {
				wantRep, wantErr := Run(sp)
				sameOutcome(t, fmt.Sprintf("lane %d (%v)", i, sp.Fault.Kind), wantRep, wantErr, reports[i], errs[i])
			}
			// Parallel scalar call site: same report again for one lane.
			par := specs[7]
			par.Exec = Parallel(2)
			parRep, parErr := Run(par)
			sameOutcome(t, "parallel scalar", parRep, parErr, reports[7], errs[7])
		})
	}
}

// TestRunSeedsSingleSeed pins the degenerate batch: one seed through
// RunSeeds is exactly Run.
func TestRunSeedsSingleSeed(t *testing.T) {
	sp := MustLookup("consensus/flooding").Spec(30, 5, 7)
	sp.Fault = FaultModel{Kind: RandomCrashes, Count: 5, Horizon: 7}
	reports, errs := RunSeeds(sp, []uint64{7})
	wantRep, wantErr := Run(sp)
	sameOutcome(t, "seeds=1", wantRep, wantErr, reports[0], errs[0])
}

// TestExecuteBatchInvalidSpec: a spec that fails Run's preconditions
// must surface Run's exact error from the batch and from RunSeeds, not
// a batch-specific one. A spec with an Observer must run scalar: the sliced engine emits
// no per-message events, and the parallel engine refuses observers.
func TestExecuteBatchInvalidSpec(t *testing.T) {
	good := MustLookup("consensus/flooding").Spec(24, 4, 1)
	badDelay := good
	badDelay.Fault = FaultModel{Kind: DelayedLinks, Delay: -1}
	badTopology := good
	badTopology.Topology = "bogus"
	parallelObserver := good
	parallelObserver.Observer = &messageCounter{}
	parallelObserver.Exec = Parallel(2)
	negT := good
	negT.T = -1
	negDegree := good
	negDegree.Degree = -3
	negSlack := good
	negSlack.RoundSlack = -3
	for _, bad := range []Spec{badDelay, badTopology, parallelObserver, negT, negDegree, negSlack} {
		reports, errs := ExecuteBatch([]Spec{good, bad})
		if errs[0] != nil || reports[0] == nil {
			t.Fatalf("good spec failed: %v", errs[0])
		}
		_, wantErr := Run(bad)
		if wantErr == nil || errs[1] == nil || wantErr.Error() != errs[1].Error() {
			t.Fatalf("bad spec error diverged: scalar %v, batch %v", wantErr, errs[1])
		}
		_, seedErrs := RunSeeds(bad, []uint64{1, 2})
		for i, err := range seedErrs {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("RunSeeds lane %d error %v, want %v", i, err, wantErr)
			}
		}
	}

	var scalar, batched messageCounter
	observed := good
	observed.Observer = &scalar
	wantRep, wantErr := Run(observed)
	observed.Observer = &batched
	reports, errs := ExecuteBatch([]Spec{good, observed})
	sameOutcome(t, "observer", wantRep, wantErr, reports[1], errs[1])
	if scalar.messages == 0 || batched.messages != scalar.messages {
		t.Fatalf("observer saw %d messages batched, %d scalar", batched.messages, scalar.messages)
	}
}

// messageCounter is a sim.Observer that counts OnMessage events.
type messageCounter struct{ messages int }

func (c *messageCounter) OnMessage(int, sim.Envelope) { c.messages++ }
func (c *messageCounter) OnCrash(int, sim.NodeID)     {}
func (c *messageCounter) OnHalt(int, sim.NodeID)      {}

// eventLog is an obs.RunTracer that records its events in order.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) StageDuration(s obs.Stage, _ time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, s.String())
}

func (l *eventLog) RunDone(e obs.Engine, _ obs.Outcome, _ int, _ time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, "done:"+e.String())
}

// TestExecuteBatchTracerContract pins what ExecuteBatch reports through
// Spec.Tracer for both sliced stacks. A sliced chunk reports through
// its first spec's tracer alone: the scenario setup, the engine's setup
// and rounds, one sliced RunDone for the whole word, then the lane
// merge. A singleton gossip group runs scalar, so its tracer sees Run's
// stages and the sequential engine.
func TestExecuteBatchTracerContract(t *testing.T) {
	sliced := []string{"setup", "setup", "rounds", "done:sliced", "merge"}
	scalar := []string{"setup", "setup", "rounds", "done:sequential", "decode"}
	for _, name := range []string{"consensus/flooding", "gossip/expander"} {
		t.Run(name, func(t *testing.T) {
			base := MustLookup(name).Spec(40, 6, 1)
			specs := make([]Spec, 8)
			logs := make([]*eventLog, len(specs))
			for i := range specs {
				specs[i] = base
				specs[i].Fault = FaultModel{Kind: CrashSchedule, Schedule: []CrashEvent{{Node: i, Round: 1, Keep: 1}}}
				logs[i] = &eventLog{}
				specs[i].Tracer = logs[i]
			}
			if !sliceable(base) {
				t.Fatalf("%s must be sliceable", name)
			}
			_, errs := ExecuteBatch(specs)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("lane %d: %v", i, err)
				}
			}
			if !reflect.DeepEqual(logs[0].events, sliced) {
				t.Fatalf("chunk tracer saw %v, want %v", logs[0].events, sliced)
			}
			for i, l := range logs[1:] {
				if len(l.events) != 0 {
					t.Fatalf("lane %d tracer saw %v, want nothing", i+1, l.events)
				}
			}
		})
	}

	one := MustLookup("gossip/expander").Spec(40, 6, 1)
	log := &eventLog{}
	one.Tracer = log
	if _, errs := ExecuteBatch([]Spec{one}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if !reflect.DeepEqual(log.events, scalar) {
		t.Fatalf("singleton gossip tracer saw %v, want %v", log.events, scalar)
	}
}
