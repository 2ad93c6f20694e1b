package sim

import (
	"errors"
	"runtime"
	"sync"
)

// The parallel engine shards nodes across a fixed pool of workers
// (≈GOMAXPROCS, not one goroutine per node), barrier-synced per phase.
// On the fast path (no link filter installed) a round is four worker
// phases with thin serial seams between them:
//
//	send     workers call Send + validate for their shard
//	(seam)   node-level fault + crash bookkeeping, in node order
//	pack     workers pack their shard's outboxes into shard-local
//	         wire buffers, counting per-destination totals and
//	         shard-local traffic metrics
//	(seam)   prefix-sum the shard counts into global segment offsets
//	         and per-(worker, destination) cursors; merge metrics
//	scatter  workers place their own staged runs into the shared
//	         inbox — disjoint cursor ranges, no coordination
//	deliver  workers decode + call Deliver + Halted for their shard
//
// Because worker shards are contiguous ascending node ranges and each
// worker stages in node order, laying a destination's segment out as
// worker 0's messages, then worker 1's, … reproduces exactly the
// ascending-sender order the sequential engine guarantees. Everything
// order-sensitive that remains — the fault layer and the offsets — is
// serial, so the transcript is identical to the sequential engine's;
// the equivalence is a test. Per-message work (packing, the sizeBits
// accounting, the cache-missy scatter, decoding) all fans out, which
// is what the serial-stitch design this replaces left on the
// coordinator.
//
// Runs with a link filter installed (per-envelope drop/delay verdicts)
// fall back to the serial stitch for the fault, counting and staging
// seam — verdict order is observable by stateful filters — and still
// fan out send and the decode + deliver phase.
//
// The pool is the Runtime's one pool, reused across runs: workers
// persist, blocked on their job channels, and shardScratch.prepare
// re-sizes the per-node and per-worker buffers for the next
// configuration.

// RunParallel executes the configured system on the sharded worker
// pool of a fresh Runtime, stopping the pool before it returns.
// workers <= 0 selects GOMAXPROCS. It produces results identical to
// Run (the sequential engine); the equivalence is a test. Multi-port
// only: the single-port model is inherently centralized. Configs with
// an Observer are rejected; observers need the sequential engine's
// event order.
func RunParallel(cfg Config, workers int) (*Result, error) {
	rt := NewRuntime()
	defer rt.Close()
	return ownResult(rt.RunParallel(cfg, workers))
}

var (
	errSinglePortParallel = errors.New("sim: the parallel engine supports the multi-port model only")
	errObserverParallel   = errors.New("sim: Observer requires the sequential engine")
)

// validateParallelConfig holds the parallel engine's config
// constraints.
func validateParallelConfig(cfg Config) error {
	if cfg.SinglePort {
		return errSinglePortParallel
	}
	if cfg.Observer != nil {
		return errObserverParallel
	}
	return nil
}

// resolveWorkers maps a requested worker count to the effective one:
// <= 0 selects GOMAXPROCS, and the count is clamped to the node count
// and the wire-format table-id space.
func resolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers > wireMaxTables {
		workers = wireMaxTables
	}
	return workers
}

// poolJob is one phase of one round, as dispatched to a worker.
type poolJob struct {
	kind  int
	round int
}

// The parallel round's phases.
const (
	jobSend = iota
	jobPack
	jobScatter
	jobDeliver
)

// pool is the package's worker pool: a fixed set of goroutines, one
// job channel each, barrier-synced per phase. Workers persist for the
// pool's lifetime, parked on their job channels between phases and
// between runs, so one pool serves any sequence of parallel runs at
// its worker count. The engine state owns the phase switch, the shard
// bounds and the per-worker scratch; the pool only supplies
// goroutines and barriers.
type pool struct {
	workers int
	// eng is the run the current phase belongs to; written by the
	// coordinator before the job sends that publish it.
	eng    *state
	jobs   []chan poolJob
	phase  sync.WaitGroup
	exited sync.WaitGroup
	down   sync.Once
}

func newPool(workers int) *pool {
	p := &pool{workers: workers, jobs: make([]chan poolJob, workers)}
	p.exited.Add(workers)
	for w := 0; w < workers; w++ {
		p.jobs[w] = make(chan poolJob, 1)
		go p.worker(w)
	}
	return p
}

func (p *pool) worker(w int) {
	defer p.exited.Done()
	for job := range p.jobs[w] {
		p.eng.runShard(w, job)
		p.phase.Done()
	}
}

// runPhase dispatches one phase of eng's round to every worker and
// waits for the barrier. The job sends publish everything the
// coordinator wrote before the phase; the WaitGroup completion gives
// the coordinator a happens-before edge over all scratch the workers
// wrote.
func (p *pool) runPhase(eng *state, kind, round int) {
	p.eng = eng
	p.phase.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.jobs[w] <- poolJob{kind: kind, round: round}
	}
	p.phase.Wait()
}

// shutdown stops the workers and returns once they have exited. It is
// idempotent.
func (p *pool) shutdown() {
	p.down.Do(func() {
		for _, ch := range p.jobs {
			close(ch)
		}
		p.exited.Wait()
	})
}

// shardScratch is the parallel engine's scratch: worker w owns the
// contiguous node shard bounds[w]..bounds[w+1]. It lives in the
// state, so it survives pool rebuilds.
type shardScratch struct {
	workers int
	bounds  []int
	// Per-node scratch, written only by the owning worker during a
	// phase and read by the coordinator between phases.
	outbox  [][]Envelope
	deliver [][]Envelope
	errs    []error
	halted  []bool
	// Per-worker pack state: shard-local wire buffers, escape tables
	// (table id w+1), per-destination counts, scatter cursors, decode
	// buffers, and traffic accumulators.
	wbuf     [][]wireMsg
	wesc     []escTable
	wcounts  [][]int32
	wstart   [][]int32
	dbuf     [][]Envelope
	wmsgs    []int64
	wbits    []int64
	wbyzMsgs []int64
	wbyzBits []int64
}

// prepare sizes the scratch for n nodes over the given worker count.
// Steady state — same n and workers across runs — touches no
// allocator.
func (sh *shardScratch) prepare(n, workers int) {
	if sh.workers != workers {
		*sh = shardScratch{
			workers:  workers,
			bounds:   make([]int, workers+1),
			wbuf:     make([][]wireMsg, workers),
			wesc:     make([]escTable, workers),
			wcounts:  make([][]int32, workers),
			wstart:   make([][]int32, workers),
			dbuf:     make([][]Envelope, workers),
			wmsgs:    make([]int64, workers),
			wbits:    make([]int64, workers),
			wbyzMsgs: make([]int64, workers),
			wbyzBits: make([]int64, workers),
		}
	}
	if len(sh.outbox) != n {
		sh.outbox = make([][]Envelope, n)
		sh.deliver = make([][]Envelope, n)
		sh.errs = make([]error, n)
		sh.halted = make([]bool, n)
		for w := 0; w < workers; w++ {
			sh.wcounts[w] = make([]int32, n)
			sh.wstart[w] = make([]int32, n)
		}
	} else {
		clear(sh.outbox)
		clear(sh.deliver)
		clear(sh.errs)
		clear(sh.halted)
	}
	for w := 0; w <= workers; w++ {
		sh.bounds[w] = w * n / workers
	}
}

// scrub drops the payload references the scratch holds once a run is
// over. outbox/deliver are consumed-and-nilled every completed round
// but hold protocol slices after an aborted one.
func (sh *shardScratch) scrub() {
	clear(sh.outbox)
	clear(sh.deliver)
	for w := 0; w < sh.workers; w++ {
		sh.wesc[w].reset()
		sh.dbuf[w] = sh.dbuf[w][:cap(sh.dbuf[w])]
		clear(sh.dbuf[w])
	}
}

// runShard is the parallel round's phase switch: it runs one phase
// over worker w's shard.
func (s *state) runShard(w int, job poolJob) {
	sh := &s.sh
	lo, hi := sh.bounds[w], sh.bounds[w+1]
	switch job.kind {
	case jobSend:
		for id := lo; id < hi; id++ {
			if !s.alive(id) {
				continue
			}
			out := s.cfg.Protocols[id].Send(job.round)
			if err := s.validateOutbox(id, out); err != nil {
				sh.errs[id] = err
				sh.outbox[id] = nil
				continue
			}
			sh.outbox[id] = out
		}
	case jobPack:
		s.packShard(w, lo, hi)
	case jobScatter:
		s.scatterShard(w)
	case jobDeliver:
		buf := sh.dbuf[w]
		for id := lo; id < hi; id++ {
			if !s.alive(id) {
				continue
			}
			var inbox []Envelope
			inbox, buf = decodeWireInto(s, s.scratch.inboxOf(id), buf)
			s.cfg.Protocols[id].Deliver(job.round, inbox)
			sh.halted[id] = s.cfg.Protocols[id].Halted()
		}
		sh.dbuf[w] = buf
	}
}

// packShard packs one worker's share of the round's fault-surviving
// outboxes into its shard-local wire buffer, counting per-destination
// totals and shard-local traffic. Escape payloads go to the worker's
// own table (id w+1), recycled every round — the parallel fast path
// has no cross-round message parking.
func (s *state) packShard(w, lo, hi int) {
	sh := &s.sh
	esc := &sh.wesc[w]
	esc.reset()
	buf := sh.wbuf[w][:0]
	counts := sh.wcounts[w]
	clear(counts)
	table := uint64(w + 1)
	var msgs, bits, byzMsgs, byzBits int64
	for id := lo; id < hi; id++ {
		deliver := sh.deliver[id]
		sh.deliver[id] = nil
		if len(deliver) == 0 {
			continue
		}
		var sb int64
		for i := range deliver {
			wm, b := packEnvelope(&deliver[i], esc, table)
			buf = append(buf, wm)
			counts[wm.To]++
			sb += b
		}
		if s.byz[id] {
			byzMsgs += int64(len(deliver))
			byzBits += sb
		} else {
			msgs += int64(len(deliver))
			bits += sb
		}
	}
	sh.wbuf[w] = buf
	sh.wmsgs[w], sh.wbits[w] = msgs, bits
	sh.wbyzMsgs[w], sh.wbyzBits[w] = byzMsgs, byzBits
}

// scatterShard places one worker's staged messages into the shared
// inbox. The coordinator pre-computed disjoint per-(worker,
// destination) cursor ranges, so workers write without coordination
// and every destination segment comes out in ascending sender order.
func (s *state) scatterShard(w int) {
	inbox := s.scratch.inbox
	start := s.sh.wstart[w]
	buf := s.sh.wbuf[w]
	for i := range buf {
		to := buf[i].To
		inbox[start[to]] = buf[i]
		start[to]++
	}
}

// roundParallel is the pool-backed counterpart of state.round.
func (s *state) roundParallel(r int) error {
	if s.filter == nil {
		return s.roundParallelFast(r)
	}
	return s.roundParallelStitched(r)
}

// roundParallelFast runs the filter-free round: per-message packing,
// counting, scattering and decoding all fan out; only the node-level
// fault layer and the offset prefix-sum stay serial.
func (s *state) roundParallelFast(r int) error {
	p, sh := s.pool, &s.sh
	p.runPhase(s, jobSend, r)

	// Serial seam 1: validation errors surface for the lowest
	// offending node, then the node-level fault sees outboxes in node
	// order (it may be stateful) and the crash set updates exactly as
	// in the sequential engine — after the whole send sweep.
	sc := &s.scratch
	sc.beginRound()
	// No table-0 escape lifecycle here: the fast path has no delay
	// ring and workers pack exclusively into their own tables, reset
	// every pack phase.
	s.label, s.labelSet = "", false
	crashedNow := s.crashedNow[:0]
	for id := 0; id < s.n; id++ {
		if !s.alive(id) {
			continue
		}
		if err := sh.errs[id]; err != nil {
			return err
		}
		deliver, crash := s.fault.FilterSend(r, id, sh.outbox[id])
		sh.outbox[id] = nil
		sh.deliver[id] = deliver
		if crash {
			crashedNow = append(crashedNow, id)
		}
	}
	s.crashedNow = crashedNow
	for _, id := range crashedNow {
		s.crashed.Add(id)
	}

	p.runPhase(s, jobPack, r)

	// Serial seam 2: prefix-sum the shard-local destination counts
	// into global segment offsets and disjoint per-(worker,
	// destination) scatter cursors, and merge the shard-local traffic
	// accumulators into the metrics.
	off := int32(0)
	for d := 0; d < s.n; d++ {
		sc.offs[d] = off
		for w := 0; w < sh.workers; w++ {
			sh.wstart[w][d] = off
			off += sh.wcounts[w][d]
		}
	}
	sc.offs[s.n] = off
	sc.sizeInbox(int(off))
	var msgs, bits, byzMsgs, byzBits int64
	for w := 0; w < sh.workers; w++ {
		msgs += sh.wmsgs[w]
		bits += sh.wbits[w]
		byzMsgs += sh.wbyzMsgs[w]
		byzBits += sh.wbyzBits[w]
	}
	if msgs+byzMsgs > 0 {
		s.ensureLabel(r)
	}
	s.metrics.Messages += msgs
	s.metrics.Bits += bits
	s.metrics.ByzMessages += byzMsgs
	s.metrics.ByzBits += byzBits
	s.metrics.PerRoundMessages[r] += msgs
	if s.label != "" && msgs > 0 {
		s.metrics.PerPart[s.label] += msgs
	}

	p.runPhase(s, jobScatter, r)
	p.runPhase(s, jobDeliver, r)
	for id := 0; id < s.n; id++ {
		if s.alive(id) && sh.halted[id] {
			s.haltedAt[id] = r
		}
	}
	s.executed++
	return nil
}

// roundParallelStitched serializes the fault, counting and staging
// seam — per-envelope link verdicts are order-observable — while the
// send and deliver phases still fan out.
func (s *state) roundParallelStitched(r int) error {
	p, sh := s.pool, &s.sh
	p.runPhase(s, jobSend, r)

	sc := &s.scratch
	sc.beginRound()
	if s.escLive == 0 {
		s.esc.reset()
	}
	s.label, s.labelSet = "", false
	arrivals := s.injectArrivals(r, true)
	crashedNow := s.crashedNow[:0]
	for id := 0; id < s.n; id++ {
		if !s.alive(id) {
			continue
		}
		if err := sh.errs[id]; err != nil {
			return err
		}
		deliver, crash := s.fault.FilterSend(r, id, sh.outbox[id])
		sh.outbox[id] = nil
		if crash {
			crashedNow = append(crashedNow, id)
		}
		s.countEnvelopes(r, id, deliver)
		if err := s.stageFiltered(r, deliver, true); err != nil {
			return err
		}
	}
	s.crashedNow = crashedNow
	for _, id := range crashedNow {
		s.crashed.Add(id)
	}
	if arrivals > 0 {
		sortStagedBySender(sc.flat)
	}
	sc.place()

	p.runPhase(s, jobDeliver, r)
	for id := 0; id < s.n; id++ {
		if s.alive(id) && sh.halted[id] {
			s.haltedAt[id] = r
		}
	}
	if s.ring != nil {
		// Workers are parked again, so the coordinator may recycle the
		// round's consumed escape entries (all coordinator-packed on
		// this path, table 0).
		s.releaseDelivered()
	}
	s.executed++
	return nil
}
