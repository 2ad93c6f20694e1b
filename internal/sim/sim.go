// Package sim implements the synchronous message-passing system model
// of the paper (§2): n nodes, lock-step rounds, complete communication
// graph, crash or Byzantine failures, and two port models:
//
//   - multi-port: a node may send to and receive from any set of nodes
//     in one round;
//   - single-port: a node may send at most one message and poll at most
//     one in-port per round. Ports buffer messages and give no signal
//     (§2, §8), so polling an empty port wastes the round.
//
// Faults are injected through the pluggable link layer of linkfault.go:
// node-level crashes (including the §2 midway-multicast interruption)
// plus per-envelope omission, partition and bounded-delay models.
//
// The engine is deterministic: given the same protocols, fault layer
// and configuration it produces identical transcripts, which the tests
// use to cross-validate the sequential engine against the sharded
// parallel runtime in pool.go.
//
// The hot path is allocation-free in steady state: inboxes are built in
// a reusable CSR-style workspace (scratch.go), single-port buffers are
// index-addressed rings (ports.go), and the metrics arrays are sized up
// front. In between Send and Deliver every message travels in packed
// 16-byte wire form (wire.go) rather than as a 32-byte Envelope, and a
// Runtime (arena.go) pools the whole engine state across runs, so
// repeated runs — sweeps, replications, benchmarks — are steady-state
// allocation-free end to end. See EXPERIMENTS.md for the benchmark
// harness that tracks this.
//
// Three engines run the round: sequential, parallel and sliced. All
// of them are Runtime methods with one lifecycle — reset, rounds,
// detach — inside one tracer envelope (trace.go), and the parallel
// engine runs on the Runtime's one worker pool (pool.go). The
// package-level Run, RunParallel and RunSliced are those methods on a
// fresh Runtime, so they honour Config.Tracer too.
package sim

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"lineartime/internal/bitset"
	"lineartime/internal/obs"
)

// NodeID names a node; nodes are 0..N-1. (The paper uses 1..n; we use
// 0-based names so that "little nodes" are 0..5t-1 and the related-node
// relation is j ≡ i mod 5t.)
type NodeID = int

// Payload is the content of a message. SizeBits is the wire size used
// for the paper's bit-complexity accounting (§2 "Communication
// performance").
type Payload interface {
	SizeBits() int
}

// Envelope is one point-to-point message.
type Envelope struct {
	From, To NodeID
	Payload  Payload
}

// Protocol is the deterministic per-node state machine. The engine
// calls Send then Deliver exactly once per round while the node is
// alive and not halted.
type Protocol interface {
	// Send returns the messages the node transmits at the given round.
	// The engine copies the envelopes before the node's next Send, so
	// implementations may reuse the returned slice across rounds.
	Send(round int) []Envelope
	// Deliver hands the node all messages it receives in this round,
	// sorted by sender for determinism. The slice aliases engine
	// scratch memory that is overwritten as soon as Deliver returns;
	// implementations must not retain it.
	Deliver(round int, inbox []Envelope)
	// Halted reports whether the node has voluntarily halted. Halting
	// is irrevocable; halted nodes neither send nor receive.
	Halted() bool
}

// Poller is implemented by protocols running in the single-port model:
// in every round the node additionally chooses at most one in-port to
// poll. Returning ok=false skips polling for the round.
type Poller interface {
	Protocol
	Poll(round int) (from NodeID, ok bool)
}

// Metrics aggregates the communication and time performance of a run,
// matching the paper's two metrics (§2). For Byzantine runs, Messages
// and Bits count only traffic sent by non-faulty nodes, with faulty
// traffic tallied separately (the paper's counting rule for §7).
type Metrics struct {
	Rounds      int
	Messages    int64
	Bits        int64
	ByzMessages int64
	ByzBits     int64
	// PerRoundMessages records non-faulty messages per round, for the
	// per-part breakdowns in EXPERIMENTS.md. Its length is the number
	// of rounds executed so far.
	PerRoundMessages []int64
	// PerPart buckets non-faulty messages by the label returned by
	// Config.PartLabeler, when one is installed. The paper's proofs
	// bound each algorithm part separately (Part 1 flood ≤ L·d, Part 2
	// probing ≤ L·d·γ, ...); this makes those bounds measurable.
	PerPart map[string]int64
}

// Config describes a run.
type Config struct {
	// Protocols holds one state machine per node; len(Protocols) = n.
	Protocols []Protocol
	// Fault is the fault-injection layer (linkfault.go): node-level
	// crashes via LinkFault, plus per-envelope omission / partition /
	// delay when the value also implements LinkFilter. Nil means
	// NoFailures.
	Fault LinkFault
	// Byzantine marks nodes whose traffic is excluded from the
	// non-faulty counters. Nil means none. (Byzantine behaviour itself
	// is expressed by giving those indices adversarial Protocols.)
	Byzantine *bitset.Set
	// MaxRounds caps the run; exceeding it returns ErrNoTermination.
	MaxRounds int
	// SinglePort selects the single-port model; every Protocol must
	// then implement Poller and send at most one message per round.
	SinglePort bool
	// PartLabeler optionally maps a round to the algorithm part it
	// belongs to (all nodes share the schedule, so one function
	// covers the system); when set, Metrics.PerPart is populated.
	PartLabeler func(round int) string
	// Observer optionally receives the run's events (messages as they
	// are sent, crashes, halts). Sequential engine only; observers see
	// events in deterministic order.
	Observer Observer
	// Tracer optionally receives stage-level timings (setup, rounds)
	// and the run outcome. Unlike Observer it works on every engine,
	// and the engines' steady state stays allocation-free with one
	// installed (obs.EngineTracer uses pre-registered handles). Nil
	// disables tracing at the cost of a branch.
	Tracer obs.RunTracer
}

// Observer receives engine events during a sequential run.
type Observer interface {
	// OnMessage fires at send time for every message the node-level
	// fault admits (a link-level drop or delay still fires here: the
	// sender paid for the message).
	OnMessage(round int, env Envelope)
	// OnCrash fires when the fault layer crashes a node.
	OnCrash(round int, node NodeID)
	// OnHalt fires when a node halts voluntarily.
	OnHalt(round int, node NodeID)
}

// Result is the outcome of a run. Results returned by Run and
// RunParallel own their memory; results returned by a Runtime alias
// arena state and are valid only until the Runtime's next run — Clone
// detaches a copy.
type Result struct {
	Metrics Metrics
	// Crashed is the set of nodes the fault layer crashed.
	Crashed *bitset.Set
	// HaltedAt[i] is the round at which node i halted voluntarily, or
	// -1 if it crashed or never halted within the round budget.
	HaltedAt []int
}

// Clone returns a deep copy of the result that shares no memory with
// the run that produced it.
func (r *Result) Clone() *Result {
	c := &Result{Metrics: r.Metrics, HaltedAt: slices.Clone(r.HaltedAt)}
	c.Metrics.PerRoundMessages = slices.Clone(r.Metrics.PerRoundMessages)
	if r.Metrics.PerPart != nil {
		c.Metrics.PerPart = maps.Clone(r.Metrics.PerPart)
	}
	if r.Crashed != nil {
		c.Crashed = r.Crashed.Clone()
	}
	return c
}

// ErrNoTermination reports that some non-faulty node did not halt
// within Config.MaxRounds.
var ErrNoTermination = errors.New("sim: protocol did not terminate within MaxRounds")

// Run executes the configured system to completion on the sequential
// engine of a fresh Runtime and returns metrics and fault bookkeeping.
func Run(cfg Config) (*Result, error) {
	return ownResult(NewRuntime().Run(cfg))
}

// ownResult copies a fresh arena's result envelope out of its state,
// so a retained Result pins only the metrics slices, not the whole
// engine arena.
func ownResult(res *Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	r := *res
	return &r, nil
}

// Stepper drives a run one round at a time, for experiments that
// inspect protocol state between rounds (the lower-bound divergence
// measurements of §8 / Theorem 13).
type Stepper struct {
	st    *state
	round int
	done  bool
}

// NewStepper prepares a stepped run. Config.MaxRounds still caps the
// total number of Step calls.
func NewStepper(cfg Config) (*Stepper, error) {
	st, err := newState(cfg)
	if err != nil {
		return nil, err
	}
	return &Stepper{st: st}, nil
}

// Step executes one round. It returns done=true once every non-faulty
// node has halted (no round is executed in that case).
func (s *Stepper) Step() (done bool, err error) {
	if s.done || s.st.allDone() {
		s.done = true
		s.st.metrics.Rounds = s.round
		return true, nil
	}
	if s.round >= s.st.cfg.MaxRounds {
		return false, fmt.Errorf("%w (MaxRounds=%d)", ErrNoTermination, s.st.cfg.MaxRounds)
	}
	if err := s.st.round(s.round); err != nil {
		return false, err
	}
	s.round++
	return false, nil
}

// Round returns the number of rounds executed so far.
func (s *Stepper) Round() int { return s.round }

// Result returns the run outcome; valid at any point, final once Step
// reported done. Each call returns a distinct Result, so snapshots
// taken between steps keep their scalar fields (the slices alias
// engine state, as they always have).
func (s *Stepper) Result() *Result {
	r := *s.st.result()
	return &r
}

func newState(cfg Config) (*state, error) {
	st := &state{}
	if err := st.reset(cfg); err != nil {
		return nil, err
	}
	return st, nil
}

type state struct {
	cfg Config
	n   int
	// fault is the node-level fault layer; filter, maxDelay and ring
	// are set only when the fault also acts on individual envelopes
	// (LinkFilter), so crash-only runs skip the link level entirely.
	fault    LinkFault
	filter   LinkFilter
	maxDelay int
	ring     *delayRing[wireMsg]
	byz      []bool
	crashed  *bitset.Set
	haltedAt []int
	metrics  Metrics
	scratch  scratch
	// executed counts rounds run so far; PerRoundMessages is trimmed
	// to this length in result().
	executed int
	// label caches the PartLabeler result for the current round;
	// labelSet records whether it has been computed yet.
	label    string
	labelSet bool
	// perPart is the reusable backing map for Metrics.PerPart,
	// installed lazily by ensureLabel.
	perPart map[string]int64
	// crashedNow is the reusable per-round crash list.
	crashedNow []NodeID
	// Single-port state: per-node in-port rings, per-node poll slot,
	// and the pre-asserted Poller views of the protocols.
	ports   []portSet
	spSlot  []Envelope
	pollers []Poller
	// Wire plane (wire.go): the engine's escape table for
	// protocol-defined payloads, the count of escape entries pinned by
	// messages parked across rounds (delay ring, single-port rings),
	// and the reusable delivery decode buffer.
	esc        escTable
	escLive    int
	deliverBuf []Envelope
	// res is the reusable result envelope; on a pooled Runtime it (and
	// the state-owned slices it references) is overwritten by the next
	// run.
	res Result
	// pool, when non-nil, shards the round phases across its workers
	// (multi-port only; see pool.go); sh is the per-shard scratch those
	// phases use.
	pool *pool
	sh   shardScratch
}

// reset (re)initializes the state for a run, recycling every buffer a
// previous run on the same arena grew: the CSR workspace, the inbox
// decode buffer, the escape table, the delay ring, the single-port
// rings and their n-sized idx tables, the metrics arrays. After the
// first run of a given shape, subsequent resets touch no allocator.
func (st *state) reset(cfg Config) error {
	n := len(cfg.Protocols)
	if n == 0 {
		return errors.New("sim: no protocols")
	}
	if cfg.MaxRounds <= 0 {
		return errors.New("sim: MaxRounds must be positive")
	}
	fault := cfg.Fault
	if fault == nil {
		fault = NoFailures{}
	}
	st.cfg = cfg
	st.n = n
	st.fault = fault
	st.filter = nil
	st.maxDelay = 0
	if lf, ok := fault.(LinkFilter); ok {
		st.filter = lf
		switch d := lf.MaxDelay(); {
		case d < 0:
			return fmt.Errorf("sim: link filter declares negative MaxDelay %d", d)
		case d > 0:
			st.maxDelay = d
		}
	}
	st.ring = st.ring.recycled(st.maxDelay)
	st.byz = growSlice(st.byz, n)
	clear(st.byz)
	if cfg.Byzantine != nil {
		for id := 0; id < n; id++ {
			st.byz[id] = cfg.Byzantine.Contains(id)
		}
	}
	if st.crashed == nil || st.crashed.Len() != n {
		st.crashed = bitset.New(n)
	} else {
		st.crashed.Clear()
	}
	st.haltedAt = growSlice(st.haltedAt, n)
	for i := range st.haltedAt {
		st.haltedAt[i] = -1
	}
	st.scratch.init(n)
	// Pre-size the per-round series to the round budget so the hot
	// path indexes instead of growing (and the Stepper does not
	// re-allocate every round); result() trims to the executed prefix.
	st.metrics = Metrics{PerRoundMessages: growSlice(st.metrics.PerRoundMessages[:0], cfg.MaxRounds)}
	clear(st.metrics.PerRoundMessages)
	if st.perPart != nil {
		clear(st.perPart)
	}
	st.executed = 0
	st.label, st.labelSet = "", false
	st.crashedNow = st.crashedNow[:0]
	st.esc.reset()
	st.escLive = 0
	st.pool = nil
	if cfg.SinglePort {
		if len(st.ports) != n {
			st.ports = make([]portSet, n)
		} else {
			for i := range st.ports {
				st.ports[i].recycle()
			}
		}
		st.spSlot = growSlice(st.spSlot, n)
		st.pollers = growSlice(st.pollers, n)
		for i, p := range cfg.Protocols {
			poller, ok := p.(Poller)
			if !ok {
				return fmt.Errorf("sim: single-port run requires Poller protocols; node %d is %T", i, p)
			}
			st.pollers[i] = poller
		}
	}
	return nil
}

func (s *state) alive(id NodeID) bool {
	return !s.crashed.Contains(id) && s.haltedAt[id] < 0
}

func (s *state) run() (*Result, error) {
	for r := 0; r < s.cfg.MaxRounds; r++ {
		if s.allDone() {
			s.metrics.Rounds = r
			return s.result(), nil
		}
		if err := s.round(r); err != nil {
			return nil, err
		}
	}
	if s.allDone() {
		s.metrics.Rounds = s.cfg.MaxRounds
		return s.result(), nil
	}
	return nil, fmt.Errorf("%w (MaxRounds=%d)", ErrNoTermination, s.cfg.MaxRounds)
}

// allDone reports run completion: every non-faulty node has halted or
// crashed. Byzantine nodes never gate completion — the paper measures
// time until the non-faulty nodes halt (§2), and a malicious node
// could otherwise hold the run open forever.
func (s *state) allDone() bool {
	for id := 0; id < s.n; id++ {
		if s.alive(id) && !s.byz[id] {
			return false
		}
	}
	return true
}

func (s *state) round(r int) error {
	if s.pool != nil {
		return s.roundParallel(r)
	}
	sc := &s.scratch
	sc.beginRound()
	if s.escLive == 0 {
		// No delayed or port-buffered message references an escape
		// entry, so the side table recycles for this round's packing.
		s.esc.reset()
	}
	s.label, s.labelSet = "", false
	single := s.cfg.SinglePort
	obs := s.cfg.Observer

	// Delayed arrivals scheduled for this round enter the staged
	// buffer ahead of the round's fresh sends; the stable sender sort
	// below restores the delivery-order guarantee.
	arrivals := s.injectArrivals(r, !single)

	// Send phase. Collect each alive node's outbox, apply the
	// node-level fault, then pack the surviving envelopes into wire
	// form — counting traffic in the same pass, or through the link
	// filter when one is installed — in sender order.
	crashedNow := s.crashedNow[:0]
	for id := 0; id < s.n; id++ {
		if !s.alive(id) {
			continue
		}
		out := s.cfg.Protocols[id].Send(r)
		if err := s.validateOutbox(id, out); err != nil {
			return err
		}
		deliver, crash := s.fault.FilterSend(r, id, out)
		if crash {
			crashedNow = append(crashedNow, id)
			if obs != nil {
				obs.OnCrash(r, id)
			}
		}
		if obs != nil {
			for _, env := range deliver {
				obs.OnMessage(r, env)
			}
		}
		if s.filter == nil {
			s.stagePack(r, id, deliver, !single)
		} else {
			s.countEnvelopes(r, id, deliver)
			if err := s.stageFiltered(r, deliver, !single); err != nil {
				return err
			}
		}
	}
	s.crashedNow = crashedNow
	for _, id := range crashedNow {
		s.crashed.Add(id)
		if single {
			s.releaseDeadPorts(id)
		}
	}

	if single {
		// Deposit into the port rings; messages addressed to nodes
		// that are already dead (including this round's crashes) are
		// discarded (their escape entries recycled — nothing will ever
		// poll them out). Escapes entering a ring pin the side table
		// until they are polled out.
		for i := range sc.flat {
			to := NodeID(sc.flat[i].To)
			if s.crashed.Contains(to) || s.haltedAt[to] >= 0 {
				if w := sc.flat[i].word; wireIsEscape(w) {
					s.esc.release(wireEscIndex(w))
				}
				continue
			}
			s.ports[to].push(s.n, sc.flat[i])
			if wireIsEscape(sc.flat[i].word) {
				s.escLive++
			}
		}
	} else {
		if arrivals > 0 {
			sortStagedBySender(sc.flat)
		}
		sc.place()
	}

	// Deliver phase, in node order; inboxes are grouped and sorted by
	// sender, decoded from wire form into the reusable delivery
	// buffer. In the single-port model each alive node first polls at
	// most one in-port (polls only touch the node's own state, so
	// fusing poll and deliver preserves the all-deposits-first
	// semantics).
	for id := 0; id < s.n; id++ {
		if !s.alive(id) {
			continue
		}
		var inbox []Envelope
		if single {
			if from, wants := s.pollers[id].Poll(r); wants {
				if wm, ok := s.ports[id].pop(from); ok {
					s.spSlot[id] = Envelope{
						From:    NodeID(wm.From),
						To:      NodeID(wm.To),
						Payload: s.unpackPayload(wm.word),
					}
					inbox = s.spSlot[id : id+1 : id+1]
					if wireIsEscape(wm.word) {
						// Consumed: unpin and recycle the entry
						// (single-port always packs to table 0).
						s.escLive--
						s.esc.release(wireEscIndex(wm.word))
					}
				}
			}
		} else {
			inbox, s.deliverBuf = decodeWireInto(s, sc.inboxOf(id), s.deliverBuf)
		}
		s.cfg.Protocols[id].Deliver(r, inbox)
		if s.cfg.Protocols[id].Halted() {
			s.haltedAt[id] = r
			if obs != nil {
				obs.OnHalt(r, id)
			}
			if single {
				s.releaseDeadPorts(id)
			}
		}
	}
	if !single && s.ring != nil {
		s.releaseDelivered()
	}
	s.executed++
	return nil
}

func (s *state) validateOutbox(id NodeID, out []Envelope) error {
	if s.cfg.SinglePort && len(out) > 1 {
		return fmt.Errorf("sim: node %d sent %d messages in single-port round", id, len(out))
	}
	for _, env := range out {
		if env.From != id {
			return fmt.Errorf("sim: node %d forged sender %d", id, env.From)
		}
		if env.To < 0 || env.To >= s.n {
			return fmt.Errorf("sim: node %d addressed invalid node %d", id, env.To)
		}
		if env.To == id {
			return fmt.Errorf("sim: node %d sent to itself", id)
		}
		if env.Payload == nil {
			return fmt.Errorf("sim: node %d sent nil payload", id)
		}
	}
	return nil
}

// ensureLabel computes the per-round part label once, on the round's
// first non-empty outbox, and installs the reusable PerPart map.
func (s *state) ensureLabel(r int) {
	if s.cfg.PartLabeler != nil && !s.labelSet {
		s.label = s.cfg.PartLabeler(r)
		s.labelSet = true
		if s.metrics.PerPart == nil {
			if s.perPart == nil {
				s.perPart = make(map[string]int64)
			}
			s.metrics.PerPart = s.perPart
		}
	}
}

// tally books one sender's deliverable traffic into the metrics; the
// Byzantine split is hoisted per sender.
func (s *state) tally(r int, from NodeID, msgs, bits int64) {
	if s.byz[from] {
		s.metrics.ByzMessages += msgs
		s.metrics.ByzBits += bits
		return
	}
	s.metrics.Messages += msgs
	s.metrics.Bits += bits
	s.metrics.PerRoundMessages[r] += msgs
	if s.label != "" {
		s.metrics.PerPart[s.label] += msgs
	}
}

// stagePack is the filter-free hot path: one pass over a sender's
// deliverable envelopes packs each into wire form, stages it, and
// accumulates the bit count — there is no separate sizeBits loop and
// no per-message interface dispatch downstream of here.
func (s *state) stagePack(r int, from NodeID, deliver []Envelope, count bool) {
	if len(deliver) == 0 {
		return
	}
	s.ensureLabel(r)
	var bits int64
	for i := range deliver {
		wm, b := packEnvelope(&deliver[i], &s.esc, 0)
		s.scratch.stage1(wm, count)
		bits += b
	}
	s.tally(r, from, int64(len(deliver)), bits)
}

// countEnvelopes books a sender's traffic without staging — the
// link-filter path counts everything at send time (a dropped or
// delayed message still cost its sender the bandwidth) and lets
// stageFiltered pack the survivors.
func (s *state) countEnvelopes(r int, from NodeID, deliver []Envelope) {
	if len(deliver) == 0 {
		return
	}
	s.ensureLabel(r)
	var bits int64
	for i := range deliver {
		bits += int64(sizeBits(deliver[i].Payload))
	}
	s.tally(r, from, int64(len(deliver)), bits)
}

// detach drops the state's references into caller-owned objects — the
// config with its n protocols, the poller views, the decoded payload
// copies — so an idle pooled arena does not pin a whole protocol
// system in memory. The result envelope and its slices are untouched
// (callers may still read them until the next run); the next reset
// repopulates everything cleared here.
func (s *state) detach() {
	s.cfg = Config{}
	s.fault = nil
	s.filter = nil
	clear(s.pollers)
	clear(s.spSlot)
	s.deliverBuf = s.deliverBuf[:cap(s.deliverBuf)]
	clear(s.deliverBuf)
	s.esc.reset()
	if s.pool != nil {
		// Workers are parked between runs, so the coordinator may
		// scrub their payload-holding scratch too.
		s.sh.scrub()
		s.pool = nil
	}
}

// result fills the state-owned result envelope. On a pooled Runtime
// the envelope and the state-owned slices it references are
// overwritten by the next run; Clone detaches a copy.
func (s *state) result() *Result {
	s.res = Result{
		Metrics:  s.metrics,
		Crashed:  s.crashed,
		HaltedAt: s.haltedAt,
	}
	s.res.Metrics.PerRoundMessages = s.metrics.PerRoundMessages[:s.executed]
	return &s.res
}
