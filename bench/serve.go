package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lineartime/internal/scenario"
	"lineartime/internal/serve"
)

// serve-mixed drives serve.Server.Handler() in-process with an open
// loop: requests are sent on a seeded schedule whether or not earlier
// ones have finished, as independent users would, and each is timed
// from the moment it was due. There are no sockets, so nothing caps the
// number in flight except the server's own queue.
const (
	// nominalRate is the offered load of the latency phase (req/s).
	nominalRate = 60.0
	// latencyLimit is the tail latency a rate must meet to count
	// toward capacity.
	latencyLimit = 250 * time.Millisecond
	// ladderStep is the ratio between neighbouring rungs of the rate
	// ladder; rung k offers nominalRate·ladderStep^k.
	ladderStep       = 1.08
	ladderLo         = -16
	ladderHi         = 30
	ladderCoarseStep = 4
	// rungAttempts gives a failing rung a second try, so a momentary
	// stall of the host does not set the capacity.
	rungAttempts = 2
	// hotKeys requests share hotShare of the traffic (cache hits once
	// warm); sweepShare are /v1/sweep calls; the rest are cold runs
	// spread evenly over serveRows.
	hotKeys    = 8
	hotShare   = 0.40
	sweepShare = 0.04
	// queueDepth is the server's job queue: deep enough that a 429
	// means sustained overload rather than a momentary burst.
	queueDepth = 64
)

// serveReq is one planned request.
type serveReq struct {
	due  time.Duration
	path string
	body []byte
	pool *pool
	idx  int
}

// serveMix deals pool entries to plans: a seeded permutation per pool,
// so no entry repeats within a run, plus the fixed hot set.
type serveMix struct {
	perm    map[*pool][]int
	next    map[*pool]int
	hot     []serveReq
	wrapped int
}

func newServeMix(seed uint64) *serveMix {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	m := &serveMix{perm: make(map[*pool][]int), next: make(map[*pool]int)}
	for _, p := range append(slices.Clone(serveRows), &serveSweep) {
		m.perm[p] = rng.Perm(p.size)
	}
	for h := 0; h < hotKeys; h++ {
		p := serveRows[h%len(serveRows)]
		m.hot = append(m.hot, request(p, m.draw(p)))
	}
	return m
}

// draw deals the pool's next entry. A run that outgrows the pool wraps
// around, and the repeat is served from cache; the run records how
// many draws wrapped, which must stay 0.
func (m *serveMix) draw(p *pool) int {
	i := m.perm[p][m.next[p]%p.size]
	m.next[p]++
	if m.next[p] > p.size {
		m.wrapped++
	}
	return i
}

// request builds the HTTP request for pool entry i.
func request(p *pool, i int) serveReq {
	sps := p.specs(i)
	var (
		path string
		body any
	)
	if p == &serveSweep {
		path = "/v1/sweep"
		req := serve.SweepRequest{Scenario: sps[0].Name, Seed: sps[0].Seed}
		for _, sp := range sps {
			req.Points = append(req.Points, serve.SweepPoint{N: sp.N, T: sp.T})
		}
		body = req
	} else {
		path = "/v1/run"
		body = serve.RunRequest{Scenario: sps[0].Name, N: sps[0].N, T: sps[0].T, Seed: sps[0].Seed}
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // plain structs always encode
	}
	return serveReq{path: path, body: b, pool: p, idx: i}
}

// plan lays out one phase: exactly rate·d requests at seeded uniform
// times (a Poisson process conditioned on its count), with exact
// shares of hot, sweep and cold requests in seeded order.
func (m *serveMix) plan(seed uint64, phase int, rate float64, d time.Duration) []serveReq {
	rng := rand.New(rand.NewPCG(seed, uint64(phase-ladderLo)+1))
	n := int(math.Round(rate * d.Seconds()))
	nHot := int(math.Round(hotShare * float64(n)))
	nSweep := int(math.Round(sweepShare * float64(n)))
	kinds := make([]int, n) // -2 hot, -1 sweep, else a cold row index
	for i := range kinds {
		switch {
		case i < nHot:
			kinds[i] = -2
		case i < nHot+nSweep:
			kinds[i] = -1
		default:
			kinds[i] = (i - nHot - nSweep) % len(serveRows)
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(d))
	}
	slices.Sort(due)
	out := make([]serveReq, n)
	for i, k := range kinds {
		switch k {
		case -2:
			out[i] = m.hot[rng.IntN(len(m.hot))]
		case -1:
			out[i] = request(&serveSweep, m.draw(&serveSweep))
		default:
			p := serveRows[k]
			out[i] = request(p, m.draw(p))
		}
		out[i].due = due[i]
	}
	return out
}

// outcome is one completed request.
type outcome struct {
	lat   float64 // ms from due time to completion
	svc   float64 // ms inside the handler
	cache string  // X-Cache of /v1/run
	code  int
	msgs  int64 // simulated messages of cold runs
	body  []byte
	err   error
}

// phaseResult summarises one phase of the open loop.
type phaseResult struct {
	rate    float64
	planned int
	outs    []outcome
	late    []float64 // generator lateness per send, ms
	elapsed time.Duration
	drain   time.Duration // last completion − last due time
	aborted bool
	runs    int64 // engine runs completed during the phase
}

func (r phaseResult) lats() []float64 {
	out := make([]float64, len(r.outs))
	for i, o := range r.outs {
		out[i] = o.lat
	}
	return out
}

func (r phaseResult) failures() int {
	n := 0
	for _, o := range r.outs {
		if o.err != nil {
			n++
		}
	}
	return n
}

// wrong counts the failures that are not load shedding: on a ladder
// rung above capacity, 429s are the server working as designed.
func (r phaseResult) wrong() int {
	n := 0
	for _, o := range r.outs {
		if o.err != nil && o.code != http.StatusTooManyRequests {
			n++
		}
	}
	return n
}

// passes reports whether the phase sustained its rate: every planned
// request sent and answered correctly (a 429 is a failure), the tail
// latency within the limit, and the backlog left when the schedule
// ended drained within the limit too.
func (r phaseResult) passes() bool {
	return !r.aborted && len(r.outs) == r.planned && r.failures() == 0 &&
		tail(r.lats()) <= ms(latencyLimit) && r.drain <= latencyLimit
}

// serveBench is one server under test plus the run's bookkeeping.
type serveBench struct {
	ref     *reference
	srv     *serve.Server
	handler http.Handler
	rec     *recorder
	keys    atomic.Int64 // Key() calls timed under tracing
	firstErr
}

// firstErr keeps the first failure for the log.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) note(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// newServer builds a server and brings it to steady state: one
// warm-up run per cold row (seeds outside every pool) and the hot set
// filled into the cache. This is the set-up time.
func newServer(ref *reference, hot []serveReq, workers int) (*serveBench, error) {
	b := &serveBench{ref: ref}
	b.srv = serve.New(serve.Config{Workers: workers, QueueDepth: queueDepth})
	b.handler = b.srv.Handler()
	for i, p := range serveRows {
		sp := p.specs(0)[0]
		body, err := json.Marshal(serve.RunRequest{Scenario: sp.Name, N: sp.N, T: sp.T, Seed: uint64(i + 1)})
		if err != nil {
			return nil, err
		}
		if err := b.doChecked(&serveReq{path: "/v1/run", body: body}); err != nil {
			b.srv.Close()
			return nil, fmt.Errorf("warm-up %s: %w", p.name, err)
		}
	}
	for i := range hot {
		if err := b.doChecked(&hot[i]); err != nil {
			b.srv.Close()
			return nil, fmt.Errorf("hot fill: %w", err)
		}
	}
	return b, nil
}

// do sends one request and checks its answer. Under tracing it also
// times scenario.Spec.Key for the request's specs, as a child span.
func (b *serveBench) do(r *serveReq, due time.Time) outcome {
	root := b.rec.begin("serve.request", "serve", 0, 0)
	if b.rec != nil && r.pool != nil {
		sps := r.pool.specs(r.idx)
		k := b.rec.begin("scenario.Key", "scenario", root.id, root.req)
		for _, sp := range sps {
			_ = sp.Key()
		}
		b.rec.end(k)
		b.keys.Add(int64(len(sps)))
	}
	req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	w := httptest.NewRecorder()
	t0 := time.Now()
	b.handler.ServeHTTP(w, req)
	end := time.Now()
	b.rec.end(root)
	o := outcome{lat: ms(end.Sub(due)), svc: ms(end.Sub(t0)), code: w.Code, cache: w.Header().Get("X-Cache"), body: w.Body.Bytes()}
	if w.Code != http.StatusOK {
		o.err = statusErr(w.Code, o.body)
	}
	return o
}

// verify checks a completed request's answer and releases its body.
// Phases verify after the last request finished, so checking never
// competes with the server for the CPU while latency is measured.
func (b *serveBench) verify(r *serveReq, o *outcome) {
	if o.err == nil {
		o.msgs, o.err = b.check(r, o.body, o.cache)
	}
	o.body = nil
	if o.err != nil && o.code != http.StatusTooManyRequests {
		b.note(o.err)
	}
}

// doChecked sends one request and verifies it at once (set-up only).
func (b *serveBench) doChecked(r *serveReq) error {
	o := b.do(r, time.Now())
	b.verify(r, &o)
	return o.err
}

// check verifies a 200 response: the run envelopes' digest equal to the
// reference, and on cold runs the paper's properties. It returns the
// simulated messages of the cold runs.
func (b *serveBench) check(r *serveReq, body []byte, cache string) (int64, error) {
	var envelopes []json.RawMessage
	switch r.path {
	case "/v1/run":
		envelopes = []json.RawMessage{body}
	default:
		var sw serve.SweepResponse
		if err := json.Unmarshal(body, &sw); err != nil {
			return 0, fmt.Errorf("%s: %w", r.path, err)
		}
		envelopes = sw.Results
		cache = "miss" // sweep points are fresh seeds
	}
	if r.pool == nil { // warm-up: no reference entry
		return 0, nil
	}
	d := newDigester()
	var msgs int64
	for _, env := range envelopes {
		d.addJSON(env)
		if cache == "hit" {
			continue
		}
		var resp struct {
			Report *scenario.Report `json:"report"`
		}
		if err := json.Unmarshal(env, &resp); err != nil || resp.Report == nil {
			return 0, fmt.Errorf("%s: bad run envelope: %v", r.path, err)
		}
		msgs += resp.Report.Metrics.Messages
		if r.pool.check != nil {
			if err := r.pool.check(resp.Report); err != nil {
				return 0, err
			}
		}
	}
	return msgs, b.ref.verify(r.pool, r.idx, d.sum())
}

// statusErr is a non-200 answer; its text carries the server's error.
func statusErr(code int, body []byte) error {
	return fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(body))
}

// phase runs one planned phase. With abortable set it stops sending
// as soon as the phase can no longer pass (a failure, or more requests
// over the latency limit than the tail allows), which keeps failed
// ladder rungs short.
func (b *serveBench) phase(plan []serveReq, rate float64, abortable bool) phaseResult {
	res := phaseResult{rate: rate, planned: len(plan), late: make([]float64, 0, len(plan))}
	outs := make([]outcome, len(plan))
	allowedOver := int64(float64(len(plan)) * (1 - tailLevel(len(plan))))
	var (
		wg    sync.WaitGroup
		abort atomic.Bool
		over  atomic.Int64
		last  atomic.Int64 // latest completion, ns since start
	)
	// The previous phase's garbage is collected before this one starts.
	runtime.GC()
	runs0 := b.srv.Stats().Queue.Completed
	start := time.Now()
	sent := 0
	for i := range plan {
		if abortable && abort.Load() {
			break
		}
		due := start.Add(plan[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.late = append(res.late, ms(time.Since(due)))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := b.do(&plan[i], due)
			outs[i] = o
			done := time.Since(start).Nanoseconds()
			for {
				cur := last.Load()
				if done <= cur || last.CompareAndSwap(cur, done) {
					break
				}
			}
			if o.err != nil || (o.lat > ms(latencyLimit) && over.Add(1) > allowedOver) {
				abort.Store(true)
			}
		}(i)
		sent++
	}
	wg.Wait()
	res.runs = b.srv.Stats().Queue.Completed - runs0
	for i := range outs[:sent] {
		b.verify(&plan[i], &outs[i])
	}
	res.outs = outs[:sent]
	res.aborted = sent < len(plan)
	res.elapsed = time.Duration(last.Load())
	if sent > 0 {
		res.drain = res.elapsed - plan[sent-1].due
	}
	return res
}

// metricsScrape reads GET /metrics through the handler.
func (b *serveBench) metricsScrape() (scrape, error) {
	w := httptest.NewRecorder()
	b.handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		return nil, statusErr(w.Code, w.Body.Bytes())
	}
	return parseExposition(w.Body.Bytes())
}

// runServeMixed is the serve-mixed workload.
func runServeMixed(cfg config, ref *reference) (*result, error) {
	nominalDur := time.Duration(0.6 * cfg.seconds * float64(time.Second))
	rungDur := time.Duration(cfg.seconds / 12 * float64(time.Second))

	var setups []float64
	var b *serveBench
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.srv.Close()
		}
		mix := newServeMix(cfg.seed)
		t0 := time.Now()
		var err error
		if b, err = newServer(ref, mix.hot, cfg.procs); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res := newResult()
	res.e2e["setup_s"] = median(setups)

	mix := newServeMix(cfg.seed)
	mem0 := readMem()
	nominal := b.phase(mix.plan(cfg.seed, 0, nominalRate, nominalDur), nominalRate, false)
	mem1 := readMem()
	// Peak memory is taken at the nominal rate: the ladder's overload
	// rungs differ from run to run.
	rss := peakRSSMB()
	res.count(len(nominal.outs), nominal.failures())
	lats := nominal.lats()
	res.e2e["p50_ms"] = median(lats)
	res.layer["p99_ms"] = tail(lats)
	res.info["p99_ms"] = tail(lats)
	res.info["p99_level"] = tailLevel(len(lats))
	res.info["p99_samples"] = float64(len(lats))
	res.info["nominal_rate"] = nominalRate
	res.info["gen_late_p99_ms"] = tail(nominal.late)

	if !cfg.trace {
		best, bestK := b.capacity(cfg, mix, nominal, rungDur, res)
		if best != nil {
			res.e2e["capacity_rps"] = float64(len(best.outs)) / best.elapsed.Seconds()
			res.e2e["sims_per_s"] = float64(best.runs) / best.elapsed.Seconds()
			res.info["capacity_rung_offered_rps"] = best.rate
			res.info["capacity_rung"] = float64(bestK)
		}
		res.info["cold_draws_wrapped"] = float64(mix.wrapped)
		b.srv.Close()
		res.e2e["peak_rss_mb"] = rss
		res.err = b.err
		return res, nil
	}
	b.srv.Close()

	// Traced pass: a fresh server, the same plan, spans on.
	tb, err := newServer(ref, newServeMix(cfg.seed).hot, cfg.procs)
	if err != nil {
		return nil, err
	}
	defer tb.srv.Close()
	tb.rec = newRecorder()
	before, err := tb.metricsScrape()
	if err != nil {
		return nil, err
	}
	traced := tb.phase(newServeMix(cfg.seed).plan(cfg.seed, 0, nominalRate, nominalDur), nominalRate, false)
	after, err := tb.metricsScrape()
	if err != nil {
		return nil, err
	}
	res.count(len(traced.outs), traced.failures())
	res.layer["obs.trace_overhead_share"] = ratio(median(traced.lats())-median(lats), median(lats))
	res.layer["runtime.alloc_mb_per_sim"] = ratio(float64(mem1.totalAlloc-mem0.totalAlloc)/1e6, float64(nominal.runs))
	res.layer["runtime.gc_cycles"] = float64(mem1.numGC - mem0.numGC)
	tb.layerMetrics(traced, before, after, res)
	if err := tb.rec.write(cfg.tracePath(), cfg.env); err != nil {
		return nil, err
	}
	res.err = errors.Join(b.err, tb.err)
	return res, nil
}

// capacity climbs the rate ladder from the nominal rung: coarse steps
// up to the first failure, then single rungs from the last pass. The
// nominal phase counts as rung 0. It returns the highest passing rung.
func (b *serveBench) capacity(cfg config, mix *serveMix, nominal phaseResult, d time.Duration, res *result) (*phaseResult, int) {
	rungs := map[int]phaseResult{0: nominal}
	try := func(k int) bool {
		if r, ok := rungs[k]; ok {
			return r.passes()
		}
		rate := nominalRate * math.Pow(ladderStep, float64(k))
		var r phaseResult
		for attempt := 0; attempt < rungAttempts; attempt++ {
			r = b.phase(mix.plan(cfg.seed, k+attempt*(ladderHi-ladderLo+1), rate, d), rate, true)
			res.count(len(r.outs), r.wrong())
			if r.passes() {
				break
			}
		}
		rungs[k] = r
		return r.passes()
	}
	lo, hi := 0, ladderHi+1 // lo passes (or is below the ladder), hi fails
	if !try(0) {
		lo, hi = ladderLo-1, 0
		for k := -ladderCoarseStep; k >= ladderLo; k -= ladderCoarseStep {
			if try(k) {
				lo = k
				break
			}
			hi = k
		}
	} else {
		for k := ladderCoarseStep; k <= ladderHi; k += ladderCoarseStep {
			if !try(k) {
				hi = k
				break
			}
			lo = k
		}
	}
	for k := lo + 1; k < hi && k <= ladderHi; k++ {
		if !try(k) {
			break
		}
		lo = k
	}
	res.info["rungs_run"] = float64(len(rungs))
	if lo < ladderLo {
		return nil, 0
	}
	best := rungs[lo]
	return &best, lo
}

// layerMetrics derives the serve-mixed per-layer metrics from the
// traced phase and the /metrics deltas around it.
func (b *serveBench) layerMetrics(p phaseResult, before, after scrape, res *result) {
	var hitLat, missLat, missSvc []float64
	runReqs, rejected := 0, 0
	var msgs int64
	for _, o := range p.outs {
		msgs += o.msgs
		if o.code == http.StatusTooManyRequests {
			rejected++
		}
		switch o.cache {
		case "hit":
			hitLat = append(hitLat, o.lat)
		case "miss":
			missLat = append(missLat, o.lat)
			missSvc = append(missSvc, o.svc)
		}
		if o.cache != "" {
			runReqs++
		}
	}
	d := func(name string, labels ...string) float64 { return delta(before, after, name, labels...) }
	runs := d("lineartime_runs_total")
	misses := d("lineartime_cache_misses_total")
	runSecs := d("lineartime_run_duration_seconds_sum")
	stage := func(s string) float64 {
		return d("lineartime_run_stage_duration_seconds_sum", `stage="`+s+`"`)
	}
	keySecs := b.rec.spanSeconds("scenario.Key")
	reqSecs := b.rec.spanSeconds("serve.request")

	l := res.layer
	l["serve.hit_share"] = ratio(float64(len(hitLat)), float64(runReqs))
	l["serve.hit_p50_ms"] = median(hitLat)
	l["serve.miss_p50_ms"] = median(missLat)
	l["serve.miss_p99_ms"] = tail(missLat)
	l["serve.queue_wait_ms"] = mean(missSvc) - 1000*ratio(runSecs, d("lineartime_run_duration_seconds_count"))
	l["serve.runs_per_miss"] = ratio(runs, misses)
	l["serve.coalesced_share"] = ratio(d("lineartime_coalesced_total"), misses)
	l["serve.rejected_429"] = float64(rejected)
	l["serve.gen_late_ms"] = tail(p.late)
	l["scenario.key_us"] = 1e6 * ratio(keySecs, float64(b.keys.Load()))
	l["scenario.setup_ms"] = 1000 * ratio(stage("setup"), runs)
	l["scenario.decode_ms"] = 1000 * ratio(stage("decode"), runs)
	l["scenario.merge_ms"] = 1000 * ratio(stage("merge"), runs)
	l["sim.rounds_ms"] = 1000 * ratio(stage("rounds"), runs)
	l["sim.ns_per_msg"] = 1e9 * ratio(stage("rounds"), float64(msgs))

	// Self time: the run stages happen inside serve requests, so the
	// serve layer's own time is what the requests spent outside them.
	inner := stage("setup") + stage("rounds") + stage("decode") + stage("merge")
	res.self = map[string]float64{
		"serve":    reqSecs - keySecs - inner,
		"scenario": keySecs + stage("decode") + stage("merge"),
		"setup":    stage("setup"),
		"sim":      stage("rounds"),
	}
}
