package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lineartime/internal/obs"
)

// span is one timed interval at a layer boundary. Spans of one request
// or workload call share Req; Parent is the span that caused it (0 for
// a root). Times are nanoseconds since the recorder started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay only a nil check per call.
type recorder struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// open is a span in progress.
type open struct {
	id, parent, req int64
	name, layer     string
	start           time.Time
}

// begin opens a span; parent 0 makes it a root whose request id is its
// own id, otherwise it inherits req.
func (r *recorder) begin(name, layer string, parent, req int64) open {
	if r == nil {
		return open{}
	}
	id := r.next.Add(1)
	if parent == 0 {
		req = id
	}
	return open{id: id, parent: parent, req: req, name: name, layer: layer, start: time.Now()}
}

func (r *recorder) end(o open) {
	if r == nil {
		return
	}
	r.add(o.id, o.parent, o.req, o.name, o.layer, o.start, time.Now())
}

func (r *recorder) add(id, parent, req int64, name, layer string, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Name: name, Layer: layer,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	r.mu.Unlock()
}

// stageLayer maps the program's own run stages onto the repo's layers:
// setup is spec materialization (topology and protocol stacks) plus
// the engine's arena reset, rounds is the engine, decode and merge are
// the scenario layer turning engine state into reports.
func stageLayer(s obs.Stage) string {
	switch s {
	case obs.StageSetup:
		return "setup"
	case obs.StageRounds:
		return "sim"
	default:
		return "scenario"
	}
}

// stageTracer is the obs.RunTracer installed on every traced spec. It
// turns each stage duration reported by the program into a child span
// of the call that ran it, and counts engine runs.
type stageTracer struct {
	rec         *recorder
	parent, req int64
	runs        *engineRuns
}

// engineRuns counts completed engine runs by engine.
type engineRuns struct {
	sliced, scalar atomic.Int64
}

func (t *stageTracer) StageDuration(s obs.Stage, d time.Duration) {
	end := time.Now()
	t.rec.add(t.rec.next.Add(1), t.parent, t.req, "stage."+s.String(), stageLayer(s), end.Add(-d), end)
}

func (t *stageTracer) RunDone(e obs.Engine, _ obs.Outcome, _ int, _ time.Duration) {
	if e == obs.EngineSliced || e == obs.EngineCastSliced {
		t.runs.sliced.Add(1)
	} else {
		t.runs.scalar.Add(1)
	}
}

// tracerFor returns the tracer for calls under span o, or nil untraced.
func (r *recorder) tracerFor(o open, runs *engineRuns) obs.RunTracer {
	if r == nil {
		return nil
	}
	return &stageTracer{rec: r, parent: o.id, req: o.req, runs: runs}
}

// layerSelf returns each layer's self time in seconds: every span's
// duration minus the part of its interval that its child spans cover.
func (r *recorder) layerSelf() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range r.spans {
		covered := covered(s, children[s.ID])
		self[s.Layer] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// stageTotals sums the seconds of stage spans by stage name.
func (r *recorder) stageTotals() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for _, s := range r.spans {
		if name, ok := strings.CutPrefix(s.Name, "stage."); ok {
			out[name] += float64(s.End-s.Start) / 1e9
		}
	}
	return out
}

// childStage sums the seconds of stage spans whose parent span is
// named parent, and counts those parents.
func (r *recorder) childStage(parent, stage string) (float64, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	parents := make(map[int64]bool)
	for _, s := range r.spans {
		if s.Name == parent {
			parents[s.ID] = true
		}
	}
	total := 0.0
	for _, s := range r.spans {
		if s.Name == "stage."+stage && parents[s.Parent] {
			total += float64(s.End-s.Start) / 1e9
		}
	}
	return total, len(parents)
}

// spanSeconds returns the total seconds of spans named name.
func (r *recorder) spanSeconds(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0.0
	for _, s := range r.spans {
		if s.Name == name {
			total += float64(s.End-s.Start) / 1e9
		}
	}
	return total
}

// write stores the spans and the run's environment as one JSON file.
func (r *recorder) write(path string, env envInfo) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Env   envInfo `json:"env"`
		Spans []span  `json:"spans"`
	}{env, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// scrape is one parsed /metrics exposition: sample name with labels →
// value.
type scrape map[string]float64

func parseExposition(body []byte) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every sample whose series name is name (any labels) and
// whose labels contain all of the given label pairs.
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		series, lbl, _ := strings.Cut(k, "{")
		if series != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta is after.sum − before.sum for one series selection.
func delta(before, after scrape, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}
