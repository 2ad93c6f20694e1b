package main

import (
	"errors"
	"math/rand/v2"
	"time"

	"lineartime/internal/scenario"
)

// scalarStep is one call of a scalar-large cycle.
type scalarStep struct {
	label    string
	pool     *pool
	parallel bool
}

// scalarSteps is one scalar-large cycle: one scenario.Run at a time on
// large specs. The parallel run draws from the sequential run's pool,
// so it must reproduce the sequential reference digest.
var scalarSteps = []scalarStep{
	{label: "few-crashes-materialized", pool: &scalarFew},
	{label: "few-crashes-implicit", pool: &scalarImp},
	{label: "few-crashes-parallel", pool: &scalarFew, parallel: true},
	{label: "ab-consensus", pool: &scalarByz},
	{label: "gossip", pool: &scalarGossip},
	{label: "checkpoint", pool: &scalarCkpt},
}

type scalarBench struct {
	*closedLoop
	ref   *reference
	procs int
	// perm deals entry indices: cycle c runs entry perm[c] of every
	// pool, so the three few-crashes runs share their spec.
	perm []int
}

func newScalarBench(seed uint64, ref *reference, procs int, rec *recorder) *scalarBench {
	rng := rand.New(rand.NewPCG(seed, 0x5ca1))
	return &scalarBench{closedLoop: newClosedLoop(rec), ref: ref, procs: procs, perm: rng.Perm(scalarSize)}
}

func (b *scalarBench) cycle(c int) {
	for _, st := range scalarSteps {
		b.run(st, b.perm[c%scalarSize])
	}
	b.endCycle()
}

func (b *scalarBench) run(st scalarStep, i int) {
	sp := st.pool.specs(i)[0]
	if st.parallel {
		sp.Exec = scenario.Parallel(b.procs)
	}
	b.call(st.label, "scenario.Run:"+st.label, "scenario", func(o open) (callResult, error) {
		sp.Tracer = b.rec.tracerFor(o, &b.runs)
		rep, err := scenario.Run(sp)
		if err != nil {
			return callResult{}, err
		}
		return callResult{sims: 1, msgs: rep.Metrics.Messages, check: func() error {
			got, err := checkEntry(st.pool, i, []*scenario.Report{rep})
			if err != nil {
				return err
			}
			return b.ref.verify(st.pool, i, got)
		}}, nil
	})
}

// runScalarLarge is the scalar-large workload.
func runScalarLarge(cfg config, ref *reference) (*result, error) {
	// Set-up: every step once at small n, which loads the code paths
	// and the registry without paying the large runs.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		for _, st := range scalarSteps {
			big := st.pool.specs(0)[0]
			sp := rowSpec(big.Name, 256, 4, 1)
			sp.Topology, sp.Implicit = big.Topology, big.Implicit
			if st.parallel {
				sp.Exec = scenario.Parallel(cfg.procs)
			}
			if _, err := scenario.Run(sp); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res := newResult()
	res.e2e["setup_s"] = median(setups)
	secs := cfg.seconds
	if cfg.trace {
		// The traced run measures the same cycles twice, untraced and
		// traced; each pass gets half the time.
		secs /= 2
	}

	mem0 := readMem()
	b := newScalarBench(cfg.seed, ref, cfg.procs, nil)
	b.runFor(secs, b.cycle)
	mem1 := readMem()
	b.e2e(res)
	if !cfg.trace {
		res.count(b.attempted, b.failed)
		res.e2e["peak_rss_mb"] = peakRSSMB()
		res.err = b.err
		return res, nil
	}
	tb := newScalarBench(cfg.seed, ref, cfg.procs, newRecorder())
	for c := range b.cycleLat {
		tb.cycle(c)
	}
	tb.layerMetrics(res, b.closedLoop, mem0, mem1)
	res.count(b.attempted, b.failed)
	l := res.layer
	l["sim.parallel_speedup"] = ratio(mean(b.opLat["few-crashes-materialized"]), mean(b.opLat["few-crashes-parallel"]))
	setupMS := func(label string) float64 {
		secs, parents := tb.rec.childStage("scenario.Run:"+label, "setup")
		return 1000 * ratio(secs, float64(parents))
	}
	l["topology.materialized_setup_ms"] = setupMS("few-crashes-materialized")
	l["topology.implicit_setup_ms"] = setupMS("few-crashes-implicit")
	if err := tb.rec.write(cfg.tracePath(), cfg.env); err != nil {
		return nil, err
	}
	res.err = errors.Join(b.err, tb.err)
	return res, nil
}
