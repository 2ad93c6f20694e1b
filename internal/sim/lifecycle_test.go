package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

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

// TestEntryPointTracerEvents pins the tracer envelope of all six
// entry points — the three package-level functions and the three
// Runtime methods: a run reports setup, then rounds, then exactly one
// RunDone with its engine, outcome and round count; a config that
// fails reset reports only RunDone(OutcomeError, 0); a general-engine
// run that does not terminate ends with OutcomeNoTermination.
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
		{"Runtime.Run", obs.EngineSequential, general(runtimeRun), stalled(runtimeRun)},
		{"Runtime.RunParallel", obs.EngineParallel, general(runtimeParallel), stalled(runtimeParallel)},
		{"Runtime.RunSliced", obs.EngineSliced,
			sliced(func(c SlicedConfig) (*SlicedResult, error) { return NewRuntime().RunSliced(c) }), nil},
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

// TestSharedPoolAlternation alternates RunParallel's worker count on
// one Runtime: each count change rebuilds the single pool, results
// match a fresh sequential arena, warm runs at one count are
// allocation-free (so the pool is never rebuilt between them), and the
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

	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	rt := NewRuntime()
	defer rt.Close()
	var res *Result
	run := func(w int) {
		for _, b := range bs {
			b.reset()
		}
		var err error
		if res, err = rt.RunParallel(cfg, w); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("%s: parallel result %+v, want %+v", when, res, want)
		}
	}

	var prev *pool
	for i, w := range []int{workers, workers - 1, workers} {
		run(w)
		check(fmt.Sprintf("step %d (%d workers)", i, w))
		p := rt.slot.p
		if p == nil || p.workers != w {
			t.Fatalf("step %d: pool %+v after a %d-worker run", i, p, w)
		}
		if p == prev {
			t.Fatalf("step %d: worker-count change kept the %d-worker pool", i, prev.workers)
		}
		if allocs := testing.AllocsPerRun(5, func() { run(w) }); allocs != 0 {
			t.Fatalf("step %d: warm %d-worker run allocated %.1f times; want 0", i, w, allocs)
		}
		check(fmt.Sprintf("step %d warm", i))
		if rt.slot.p != p {
			t.Fatalf("step %d: warm runs rebuilt the pool", i)
		}
		prev = p
	}

	rt.Close()
	if rt.slot.p != nil {
		t.Fatal("Close left a pool in the slot")
	}
	run(workers)
	check("after Close")
	if rt.slot.p == nil || rt.slot.p == prev {
		t.Fatal("run after Close did not start a fresh pool")
	}
}
