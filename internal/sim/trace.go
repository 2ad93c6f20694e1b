package sim

import (
	"errors"
	"time"

	"lineartime/internal/obs"
)

// runTrace is the tracer envelope every engine entry point runs in: it
// reports StageSetup when the arena is ready, StageRounds when the
// round loop returns, and exactly one RunDone per run. It is a plain
// value with methods rather than closures, so a traced steady-state
// run stays allocation-free; with a nil tracer every method is a
// branch.
type runTrace struct {
	tr     obs.RunTracer
	engine obs.Engine
	t0, t1 time.Time
}

// startTrace opens the envelope for one run of the given engine.
func startTrace(tr obs.RunTracer, engine obs.Engine) runTrace {
	t := runTrace{tr: tr, engine: engine}
	if tr != nil {
		t.t0 = time.Now()
	}
	return t
}

// setupDone closes the setup stage: the arena is reset and the round
// loop starts next.
func (t *runTrace) setupDone() {
	if t.tr != nil {
		t.t1 = time.Now()
		t.tr.StageDuration(obs.StageSetup, t.t1.Sub(t.t0))
	}
}

// fail ends a run that never reached the round loop.
func (t *runTrace) fail() {
	if t.tr != nil {
		t.tr.RunDone(t.engine, obs.OutcomeError, 0, time.Since(t.t0))
	}
}

// done ends a run whose round loop returned after the given number of
// rounds, classifying err for the outcome label.
func (t *runTrace) done(rounds int, err error) {
	if t.tr != nil {
		now := time.Now()
		t.tr.StageDuration(obs.StageRounds, now.Sub(t.t1))
		t.tr.RunDone(t.engine, runOutcome(err), rounds, now.Sub(t.t0))
	}
}

// runOutcome classifies a run error for the tracer's outcome label.
func runOutcome(err error) obs.Outcome {
	switch {
	case err == nil:
		return obs.OutcomeOK
	case errors.Is(err, ErrNoTermination):
		return obs.OutcomeNoTermination
	default:
		return obs.OutcomeError
	}
}
