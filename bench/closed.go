package main

import (
	"runtime"
	"time"
)

// closedLoop is the harness of the offline workloads: one caller that
// makes its next call only when the previous one returned, so a slower
// program receives less load. Calls are timed alone; output checks run
// after the timer stops. A cycle is one fixed list of calls, the
// workload's unit of work.
type closedLoop struct {
	rec  *recorder
	runs engineRuns

	callSecs  float64
	cycleLat  []float64            // ms per cycle, sum of its calls
	cycleSims []float64            // sims per cycle
	cycleCall []float64            // calls per cycle
	opLat     map[string][]float64 // ms per call, by call label
	calls     int
	sims      int
	batchSims int   // sims of calls that go through scenario.ExecuteBatch
	msgs      int64 // simulated messages of every report
	attempted int
	failed    int
	firstErr

	// the cycle in progress
	cur      float64
	curSims  int
	curCalls int
}

func newClosedLoop(rec *recorder) *closedLoop {
	return &closedLoop{rec: rec, opLat: make(map[string][]float64)}
}

// callResult is what one timed call hands back: the sims it completed,
// their simulated messages, and the output check to run untimed.
type callResult struct {
	sims  int
	batch bool
	msgs  int64
	check func() error
}

// call times fn as one call into the program under a root span named
// span in layer.
func (c *closedLoop) call(label, span, layer string, fn func(o open) (callResult, error)) {
	o := c.rec.begin(span, layer, 0, 0)
	t0 := time.Now()
	r, err := fn(o)
	d := time.Since(t0)
	c.rec.end(o)
	c.attempted++
	if err == nil && r.check != nil {
		err = r.check()
	}
	if err != nil {
		c.failed++
		c.note(err)
	}
	// The checks' garbage is collected outside the timed calls, so
	// every call starts from the same heap state.
	runtime.GC()
	c.callSecs += d.Seconds()
	c.cur += ms(d)
	c.curSims += r.sims
	c.curCalls++
	c.opLat[label] = append(c.opLat[label], ms(d))
	c.calls++
	c.sims += r.sims
	c.msgs += r.msgs
	if r.batch {
		c.batchSims += r.sims
	}
}

func (c *closedLoop) endCycle() {
	c.cycleLat = append(c.cycleLat, c.cur)
	c.cycleSims = append(c.cycleSims, float64(c.curSims))
	c.cycleCall = append(c.cycleCall, float64(c.curCalls))
	c.cur, c.curSims, c.curCalls = 0, 0, 0
}

// runFor runs whole cycles until the timed calls add up to seconds,
// and at least three.
func (c *closedLoop) runFor(seconds float64, cycle func(int)) {
	for i := 0; i < 3 || c.callSecs < seconds; i++ {
		cycle(i)
	}
}

// e2e fills the end-to-end metrics of a closed-loop run. Latency is per
// cycle; the rates are medians over cycles, so a slow spell of the host
// that covers a minority of cycles does not move them.
func (c *closedLoop) e2e(res *result) {
	rate := func(work []float64) float64 {
		r := make([]float64, len(work))
		for i := range work {
			r[i] = 1000 * ratio(work[i], c.cycleLat[i])
		}
		return median(r)
	}
	res.e2e["p50_ms"] = median(c.cycleLat)
	res.layer["p99_ms"] = tail(c.cycleLat)
	res.info["p99_ms"] = tail(c.cycleLat)
	res.e2e["sims_per_s"] = rate(c.cycleSims)
	res.e2e["capacity_rps"] = rate(c.cycleCall)
	res.info["p99_level"] = tailLevel(len(c.cycleLat))
	res.info["p99_samples"] = float64(len(c.cycleLat))
	res.info["calls"] = float64(c.calls)
	res.info["sims"] = float64(c.sims)
	res.info["call_seconds"] = c.callSecs
}

// layerMetrics fills the per-layer metrics every closed-loop workload
// shares, from this traced loop, the untraced loop over the same
// inputs, and the untraced loop's memory counters.
func (c *closedLoop) layerMetrics(res *result, untraced *closedLoop, mem0, mem1 memSample) {
	st := c.rec.stageTotals()
	engine := float64(c.runs.sliced.Load() + c.runs.scalar.Load())
	slicedLanes := float64(c.batchSims) - float64(c.runs.scalar.Load())
	l := res.layer
	l["scenario.setup_ms"] = 1000 * ratio(st["setup"], engine)
	l["scenario.decode_ms"] = 1000 * ratio(st["decode"], engine)
	l["scenario.merge_ms"] = 1000 * ratio(st["merge"], engine)
	l["scenario.sliced_share"] = ratio(max(slicedLanes, 0), float64(c.batchSims))
	l["scenario.lanes_per_sliced_run"] = ratio(max(slicedLanes, 0), float64(c.runs.sliced.Load()))
	l["sim.rounds_ms"] = 1000 * ratio(st["rounds"], engine)
	l["sim.ns_per_msg"] = 1e9 * ratio(st["rounds"], float64(c.msgs))
	l["runtime.alloc_mb_per_sim"] = ratio(float64(mem1.totalAlloc-mem0.totalAlloc)/1e6, float64(untraced.sims))
	l["runtime.gc_cycles"] = float64(mem1.numGC - mem0.numGC)
	l["obs.trace_overhead_share"] = ratio(c.callSecs-untraced.callSecs, untraced.callSecs)
	res.self = c.rec.layerSelf()
	res.count(c.attempted, c.failed)
}
