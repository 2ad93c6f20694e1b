package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"lineartime/internal/campaign"
	"lineartime/internal/obs"
	"lineartime/internal/scenario"
)

// batchBench is the batch-chaos workload: closed-loop calls into the
// sliced engines through scenario.RunSeeds and scenario.ExecuteBatch,
// and chaos campaigns through the campaign controller with
// scenario.ExecuteBatch as its batch evaluator. No serve layer.
type batchBench struct {
	*closedLoop
	ref    *reference
	golden []goldenCampaign
	meter  *campaign.Meter
	rng    *rand.Rand // lane picks for the sliced-vs-scalar check
	flood  []int      // seeded permutations of the batch pools
	gossip []int

	campaigns int
	evals     int
	evalSpecs int
	evalSecs  float64
	waves     int64
}

func newBatchBench(seed uint64, ref *reference, golden []goldenCampaign, rec *recorder) *batchBench {
	rng := rand.New(rand.NewPCG(seed, 0xba7c))
	return &batchBench{
		closedLoop: newClosedLoop(rec),
		ref:        ref,
		golden:     golden,
		meter:      campaign.NewMeter(obs.NewRegistry()),
		flood:      rng.Perm(batchFlooding.size),
		gossip:     rng.Perm(batchGossip.size),
		rng:        rng,
	}
}

// cycle runs one fixed list of calls: three RunSeeds, one
// ExecuteBatch and the two committed campaigns. One sliced lane per
// cycle, alternating between the two batch kinds, is re-run scalar.
func (b *batchBench) cycle(c int) {
	third := len(b.flood) / 3
	b.runSeeds(b.flood[c%len(b.flood)], c%2 == 0)
	b.executeBatch(b.gossip[c%len(b.gossip)], c%2 == 1)
	b.runSeeds(b.flood[(c+third)%len(b.flood)], false)
	b.campaign(b.golden[0])
	b.runSeeds(b.flood[(c+2*third)%len(b.flood)], false)
	b.campaign(b.golden[1])
	b.endCycle()
}

func (b *batchBench) runSeeds(i int, laneCheck bool) {
	sp, seeds := floodingBatch(i)
	b.call("runseeds", "scenario.RunSeeds", "scenario", func(o open) (callResult, error) {
		sp.Tracer = b.rec.tracerFor(o, &b.runs)
		reps, errs := scenario.RunSeeds(sp, seeds)
		return b.batchResult(&batchFlooding, i, reps, errs, laneCheck)
	})
}

func (b *batchBench) executeBatch(i int, laneCheck bool) {
	sps := batchGossip.specs(i)
	b.call("executebatch", "scenario.ExecuteBatch", "scenario", func(o open) (callResult, error) {
		tr := b.rec.tracerFor(o, &b.runs)
		for j := range sps {
			sps[j].Tracer = tr
		}
		reps, errs := scenario.ExecuteBatch(sps)
		return b.batchResult(&batchGossip, i, reps, errs, laneCheck)
	})
}

// batchResult checks a batch untimed: the entry digest against the
// reference, the properties, and optionally one seeded lane re-run
// through scenario.Run, which must produce the same report.
func (b *batchBench) batchResult(p *pool, i int, reps []*scenario.Report, errs []error, laneCheck bool) (callResult, error) {
	if err := errors.Join(errs...); err != nil {
		return callResult{}, err
	}
	r := callResult{sims: len(reps), batch: true}
	for _, rep := range reps {
		r.msgs += rep.Metrics.Messages
	}
	lane := -1
	if laneCheck {
		lane = b.rng.IntN(len(reps))
	}
	r.check = func() error {
		got, err := checkEntry(p, i, reps)
		if err != nil {
			return err
		}
		if err := b.ref.verify(p, i, got); err != nil {
			return err
		}
		if lane < 0 {
			return nil
		}
		return sameAsScalar(p.specs(i)[lane], reps[lane])
	}
	return r, nil
}

// sameAsScalar re-runs one spec on the scalar path and compares reports.
func sameAsScalar(sp scenario.Spec, got *scenario.Report) error {
	want, err := scenario.Run(sp)
	if err != nil {
		return err
	}
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, w) {
		return fmt.Errorf("%s seed %d: sliced lane differs from scenario.Run", sp.Name, sp.Seed)
	}
	return nil
}

// campaign runs one committed chaos campaign and compares its frontier
// with the file under testdata.
func (b *batchBench) campaign(g goldenCampaign) {
	b.call("campaign", "campaign.Run", "campaign", func(o open) (callResult, error) {
		ctrl, err := campaign.New(campaignSpec(g.scenario), scalarRun, 4)
		if err != nil {
			return callResult{}, err
		}
		ctrl.SetMeter(b.meter)
		ctrl.SetBatchRun(func(_ context.Context, sps []scenario.Spec) ([]*scenario.Report, []error) {
			e := b.rec.begin("scenario.ExecuteBatch", "scenario", o.id, o.req)
			tr := b.rec.tracerFor(e, &b.runs)
			for i := range sps {
				sps[i].Tracer = tr
			}
			t0 := time.Now()
			reps, errs := scenario.ExecuteBatch(sps)
			b.evalSecs += time.Since(t0).Seconds()
			b.rec.end(e)
			b.evals++
			b.evalSpecs += len(sps)
			return reps, errs
		})
		sims0, waves0 := b.meter.Sims.Value(), b.meter.Waves.Value()
		fr, err := ctrl.Run(context.Background())
		if err != nil {
			return callResult{}, err
		}
		b.campaigns++
		b.waves += b.meter.Waves.Value() - waves0
		return callResult{sims: int(b.meter.Sims.Value() - sims0), batch: true, check: func() error {
			got, err := fr.Encode()
			if err != nil {
				return err
			}
			if !bytes.Equal(got, g.want) {
				return fmt.Errorf("campaign %s: frontier differs from the committed testdata file", g.scenario)
			}
			return nil
		}}, nil
	})
}

// runBatchChaos is the batch-chaos workload.
func runBatchChaos(cfg config, ref *reference) (*result, error) {
	golden, err := loadGoldenCampaigns(cfg.root)
	if err != nil {
		return nil, err
	}
	// Set-up: arenas and code paths warmed by one call of each kind.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		w := newBatchBench(cfg.seed, ref, golden, nil)
		w.runSeeds(0, false)
		w.executeBatch(0, false)
		w.campaign(golden[0])
		if w.failed > 0 {
			return nil, fmt.Errorf("warm-up: %w", w.err)
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
	b := newBatchBench(cfg.seed, ref, golden, nil)
	b.runFor(secs, b.cycle)
	mem1 := readMem()
	b.e2e(res)
	if !cfg.trace {
		res.count(b.attempted, b.failed)
		res.e2e["peak_rss_mb"] = peakRSSMB()
		res.err = b.err
		return res, nil
	}
	tb := newBatchBench(cfg.seed, ref, golden, newRecorder())
	for c := range b.cycleLat {
		tb.cycle(c)
	}
	tb.layerMetrics(res, b.closedLoop, mem0, mem1)
	res.count(b.attempted, b.failed)
	campSecs := tb.rec.spanSeconds("campaign.Run")
	l := res.layer
	l["campaign.eval_s"] = ratio(tb.evalSecs, float64(tb.campaigns))
	l["campaign.self_s"] = ratio(campSecs-tb.evalSecs, float64(tb.campaigns))
	l["campaign.specs_per_eval"] = ratio(float64(tb.evalSpecs), float64(tb.evals))
	l["campaign.evaluated"] = ratio(float64(tb.meter.Evaluated.Value()), float64(tb.campaigns))
	l["campaign.waves"] = ratio(float64(tb.waves), float64(tb.campaigns))
	if err := tb.rec.write(cfg.tracePath(), cfg.env); err != nil {
		return nil, err
	}
	res.err = errors.Join(b.err, tb.err)
	return res, nil
}
