package sim

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"lineartime/internal/graph"
	"lineartime/internal/obs"
)

// traceEvent is one tracer call: a stage duration, or (done) a RunDone.
type traceEvent struct {
	done    bool
	stage   obs.Stage
	engine  obs.Engine
	outcome obs.Outcome
	rounds  int
}

// traceLog is a RunTracer that records its calls in order.
type traceLog struct{ events []traceEvent }

func (l *traceLog) StageDuration(s obs.Stage, _ time.Duration) {
	l.events = append(l.events, traceEvent{stage: s})
}

func (l *traceLog) RunDone(e obs.Engine, o obs.Outcome, rounds int, _ time.Duration) {
	l.events = append(l.events, traceEvent{done: true, engine: e, outcome: o, rounds: rounds})
}

// TestEntryPointTracerEvents pins the tracer envelope of all twelve
// entry points — the six package-level functions and the six Runtime
// methods: a run reports setup, then rounds, then exactly one RunDone
// with its engine, outcome and round count; a config that fails reset
// reports only RunDone(OutcomeError, 0); a general-engine run that does
// not terminate ends with OutcomeNoTermination.
func TestEntryPointTracerEvents(t *testing.T) {
	const okRounds = 20

	general := func(run func(Config) (*Result, error)) func(obs.RunTracer, int) (int, error) {
		return func(tr obs.RunTracer, maxRounds int) (int, error) {
			const n = 16
			ps := make([]Protocol, n)
			for i := range ps {
				ps[i] = &broadcaster{id: i, n: n, fanout: 2, horizon: 5}
			}
			res, err := run(Config{Protocols: ps, MaxRounds: maxRounds, Tracer: tr})
			if err != nil {
				return 0, err
			}
			return res.Metrics.Rounds, nil
		}
	}
	stalled := func(run func(Config) (*Result, error)) func(obs.RunTracer, int) error {
		return func(tr obs.RunTracer, maxRounds int) error {
			ps := []Protocol{&neverHalt{}, &neverHalt{}}
			_, err := run(Config{Protocols: ps, MaxRounds: maxRounds, Tracer: tr})
			return err
		}
	}
	sliced := func(run func(SlicedConfig) (*SlicedResult, error)) func(obs.RunTracer, int) (int, error) {
		return func(tr obs.RunTracer, maxRounds int) (int, error) {
			const n, tBound, lanes = 32, 4, 8
			inputs := make([]bool, n)
			for i := range inputs {
				inputs[i] = i%3 == 0
			}
			w := newWordFlood(n, tBound, lanes, inputs)
			res, err := run(SlicedConfig{System: w, Lanes: lanes, MaxRounds: maxRounds, Tracer: tr})
			if err != nil {
				return 0, err
			}
			rounds := 0
			for _, lr := range res.Lanes {
				rounds = max(rounds, lr.Metrics.Rounds)
			}
			return rounds, nil
		}
	}
	sh, err := graph.NewShift(128, 4, 0x7ace)
	if err != nil {
		t.Fatal(err)
	}
	cast := func(run func(CastConfig) (*CastResult, error)) func(obs.RunTracer, int) (int, error) {
		return func(tr obs.RunTracer, maxRounds int) (int, error) {
			res, err := run(CastConfig{System: newFloodCast(sh.N(), 0), Topology: sh, MaxRounds: maxRounds, Tracer: tr})
			if err != nil {
				return 0, err
			}
			return res.Rounds, nil
		}
	}
	castSliced := func(run func(CastSlicedConfig) (*CastSlicedResult, error)) func(obs.RunTracer, int) (int, error) {
		return func(tr obs.RunTracer, maxRounds int) (int, error) {
			sys := &floodLanes{n: sh.N(), informed: make([]uint64, sh.N())}
			for lane := 0; lane < 4; lane++ {
				sys.informed[lane*31] |= 1 << lane
			}
			res, err := run(CastSlicedConfig{System: sys, Topology: sh, MaxRounds: maxRounds, Lanes: 4, Tracer: tr})
			if err != nil {
				return 0, err
			}
			return res.Rounds, nil
		}
	}

	parallel := func(c Config) (*Result, error) { return RunParallel(c, 2) }
	runtimeRun := func(c Config) (*Result, error) { return NewRuntime().Run(c) }
	runtimeParallel := func(c Config) (*Result, error) {
		rt := NewRuntime()
		defer rt.Close()
		return rt.RunParallel(c, 2)
	}
	rows := []struct {
		name   string
		engine obs.Engine
		run    func(tr obs.RunTracer, maxRounds int) (rounds int, err error)
		stall  func(tr obs.RunTracer, maxRounds int) error // general engine only
	}{
		{"Run", obs.EngineSequential, general(Run), stalled(Run)},
		{"RunParallel", obs.EngineParallel, general(parallel), stalled(parallel)},
		{"RunSliced", obs.EngineSliced, sliced(RunSliced), nil},
		{"RunCast", obs.EngineCast, cast(RunCast), nil},
		{"RunCastParallel", obs.EngineCastParallel,
			cast(func(c CastConfig) (*CastResult, error) { return RunCastParallel(c, 2) }), nil},
		{"RunCastSliced", obs.EngineCastSliced, castSliced(RunCastSliced), nil},
		{"Runtime.Run", obs.EngineSequential, general(runtimeRun), stalled(runtimeRun)},
		{"Runtime.RunParallel", obs.EngineParallel, general(runtimeParallel), stalled(runtimeParallel)},
		{"Runtime.RunSliced", obs.EngineSliced,
			sliced(func(c SlicedConfig) (*SlicedResult, error) { return NewRuntime().RunSliced(c) }), nil},
		{"Runtime.RunCast", obs.EngineCast,
			cast(func(c CastConfig) (*CastResult, error) { return NewRuntime().RunCast(c) }), nil},
		{"Runtime.RunCastParallel", obs.EngineCastParallel,
			cast(func(c CastConfig) (*CastResult, error) {
				rt := NewRuntime()
				defer rt.Close()
				return rt.RunCastParallel(c, 2)
			}), nil},
		{"Runtime.RunCastSliced", obs.EngineCastSliced,
			castSliced(func(c CastSlicedConfig) (*CastSlicedResult, error) { return NewRuntime().RunCastSliced(c) }), nil},
	}
	setup, rounds := traceEvent{stage: obs.StageSetup}, traceEvent{stage: obs.StageRounds}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var ok traceLog
			got, err := row.run(&ok, okRounds)
			if err != nil {
				t.Fatal(err)
			}
			if got <= 0 {
				t.Fatalf("run reported %d rounds", got)
			}
			want := []traceEvent{setup, rounds, {done: true, engine: row.engine, outcome: obs.OutcomeOK, rounds: got}}
			if !slices.Equal(ok.events, want) {
				t.Errorf("ok run traced %+v, want %+v", ok.events, want)
			}

			// MaxRounds 0 fails every engine's reset.
			var bad traceLog
			if _, err := row.run(&bad, 0); err == nil {
				t.Fatal("MaxRounds 0 accepted")
			}
			want = []traceEvent{{done: true, engine: row.engine, outcome: obs.OutcomeError}}
			if !slices.Equal(bad.events, want) {
				t.Errorf("failed reset traced %+v, want %+v", bad.events, want)
			}

			if row.stall == nil {
				return
			}
			var stall traceLog
			if err := row.stall(&stall, 4); err == nil {
				t.Fatal("non-terminating run accepted")
			}
			want = []traceEvent{setup, rounds, {done: true, engine: row.engine, outcome: obs.OutcomeNoTermination, rounds: 4}}
			if !slices.Equal(stall.events, want) {
				t.Errorf("non-terminating run traced %+v, want %+v", stall.events, want)
			}
		})
	}
}

// TestSharedPoolAlternation drives both parallel engines through one
// Runtime at a fixed worker count: results match fresh-arena runs, the
// alternation is allocation-free once warm (so the pool is never
// rebuilt), a worker-count change rebuilds the single pool, and the
// Runtime keeps working after Close.
func TestSharedPoolAlternation(t *testing.T) {
	const n, fanout, horizon, workers = 128, 4, 10, 4
	ps := make([]Protocol, n)
	bs := make([]*broadcaster, n)
	for i := range ps {
		bs[i] = &broadcaster{id: i, n: n, fanout: fanout, horizon: horizon,
			out: make([]Envelope, 0, fanout)}
		ps[i] = bs[i]
	}
	cfg := Config{Protocols: ps, MaxRounds: horizon + 4}
	sh, err := graph.NewShift(n, 8, 0x5a7e)
	if err != nil {
		t.Fatal(err)
	}
	sys := newFloodCast(n, 0)
	ccfg := CastConfig{System: sys, Topology: sh, MaxRounds: horizon}

	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantCast, err := NewRuntime().RunCast(ccfg)
	if err != nil {
		t.Fatal(err)
	}

	rt := NewRuntime()
	defer rt.Close()
	var res *Result
	var cres *CastResult
	alternate := func(w int) {
		for _, b := range bs {
			b.reset()
		}
		var err error
		if res, err = rt.RunParallel(cfg, w); err != nil {
			t.Fatal(err)
		}
		sys.reset(0)
		if cres, err = rt.RunCastParallel(ccfg, w); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("%s: parallel result %+v, want %+v", when, res, want)
		}
		if *cres != *wantCast {
			t.Fatalf("%s: cast-parallel result %+v, want %+v", when, *cres, *wantCast)
		}
	}

	// The cast engine starts the pool; the general engine must reuse it.
	sys.reset(0)
	if _, err := rt.RunCastParallel(ccfg, workers); err != nil {
		t.Fatal(err)
	}
	if rt.slot == nil || rt.slot.p == nil || rt.slot.p.workers != workers {
		t.Fatal("RunCastParallel did not start the Runtime's pool")
	}
	p := rt.slot.p
	alternate(workers)
	check("first alternation")
	if rt.slot.p != p {
		t.Fatal("RunParallel started a second pool")
	}
	if allocs := testing.AllocsPerRun(5, func() { alternate(workers) }); allocs != 0 {
		t.Fatalf("warm alternation allocated %.1f times; want 0", allocs)
	}
	check("warm alternation")
	if rt.slot.p != p {
		t.Fatal("alternating engines rebuilt the pool")
	}

	alternate(workers - 1)
	check("resized alternation")
	if rt.slot.p == p || rt.slot.p.workers != workers-1 {
		t.Fatalf("worker-count change kept the %d-worker pool", p.workers)
	}

	rt.Close()
	if rt.slot.p != nil {
		t.Fatal("Close left a pool in the slot")
	}
	alternate(workers)
	check("after Close")
}
