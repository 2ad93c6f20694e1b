// Command linearbench is the repository's benchmark. It runs one named
// workload in-process against the program's public packages, checks
// every output, and prints one JSON result line:
//
//	bash bench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics of a separate traced run and
// writes the spans under the -out directory. README.md documents the
// workloads and metrics; -gen-ref regenerates reference.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"lineartime/internal/scenario"
)

// setupRepeats is how many times each workload sets up; setup_s is
// the median.
const setupRepeats = 5

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // repository root
	out      string // build/output directory for trace files
	procs    int    // GOMAXPROCS
	env      envInfo
}

func (c config) tracePath() string {
	return filepath.Join(c.out, "traces", fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
}

// envInfo is recorded with every result.
type envInfo struct {
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// result collects one run's metrics and failure counts.
type result struct {
	e2e       map[string]float64
	layer     map[string]float64
	info      map[string]float64
	self      map[string]float64 // seconds per layer, traced runs
	attempted int
	failed    int
	err       error // first failure, for the log
}

func newResult() *result {
	return &result{
		e2e:   make(map[string]float64),
		layer: make(map[string]float64),
		info:  make(map[string]float64),
	}
}

func (r *result) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

var workloads = map[string]func(config, *reference) (*result, error){
	"serve-mixed":  runServeMixed,
	"batch-chaos":  runBatchChaos,
	"scalar-large": runScalarLarge,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "linearbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("linearbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload name: serve-mixed, batch-chaos or scalar-large")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "seconds to measure")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for trace files")
	genRef := fs.Bool("gen-ref", false, "regenerate reference.json from the program and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.procs = runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); cfg.procs > n {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; refusing to measure", cfg.procs, n)
	}
	benchDir := filepath.Join(cfg.root, "bench")
	if *genRef {
		return generateReference(benchDir, cfg.procs)
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	cfg.trace = *traceFlag == 1
	cfg.env = envInfo{
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: cfg.procs,
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
	}
	ref, err := loadReference(benchDir)
	if err != nil {
		return err
	}
	res, err := wl(cfg, ref)
	if err != nil {
		return err
	}
	if cfg.trace {
		if err := addProbes(res); err != nil {
			return err
		}
		res.layer["fail_share"] = ratio(float64(res.failed), float64(res.attempted))
		shareSelf(res)
	}
	return emit(cfg, res)
}

// emit prints the environment and details line, then the result line.
func emit(cfg config, res *result) error {
	if res.err != nil {
		fmt.Fprintln(os.Stderr, "linearbench: output check failed:", res.err)
	}
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "linearbench: %d of %d operations failed\n", res.failed, res.attempted)
	}
	defs, vals := endToEnd, res.e2e
	if cfg.trace {
		defs, vals = perLayer(), res.layer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		metrics[d.Name] = map[string]any{"value": vals[d.Name], "unit": d.Unit}
	}
	detail, err := json.Marshal(map[string]any{"env": cfg.env, "detail": res.info})
	if err != nil {
		return err
	}
	fmt.Println(string(detail))
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0 && res.err == nil,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// shareSelf turns the traced run's per-layer self times into shares of
// their total, one metric per layer of the repository.
func shareSelf(res *result) {
	total := 0.0
	for _, v := range res.self {
		total += v
	}
	for _, layer := range selfLayers {
		res.layer["self."+layer+"_share"] = ratio(res.self[layer], total)
	}
}

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

var endToEnd = []metricDef{
	{"p50_ms", "ms", "lower"},
	{"capacity_rps", "req/s", "higher"},
	{"sims_per_s", "sims/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// selfLayers are the layers the traced run attributes self time to.
var selfLayers = []string{"serve", "campaign", "scenario", "setup", "sim"}

// perLayer lists every per-layer metric a traced run reports; a layer
// a workload never reaches reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		// The tail latency at the nominal rate (serve-mixed) or of
		// cycles: a per-layer metric because its run-to-run spread on a
		// shared 2-CPU host exceeds any useful bound (see README.md).
		{"p99_ms", "ms", "lower"},
		{"serve.hit_share", "ratio", "higher"},
		{"serve.hit_p50_ms", "ms", "lower"},
		{"serve.miss_p50_ms", "ms", "lower"},
		{"serve.miss_p99_ms", "ms", "lower"},
		{"serve.queue_wait_ms", "ms", "lower"},
		{"serve.runs_per_miss", "ratio", "lower"},
		{"serve.coalesced_share", "ratio", "higher"},
		{"serve.rejected_429", "count", "lower"},
		{"serve.gen_late_ms", "ms", "lower"},
		{"scenario.key_us", "us", "lower"},
		{"scenario.setup_ms", "ms", "lower"},
		{"scenario.decode_ms", "ms", "lower"},
		{"scenario.merge_ms", "ms", "lower"},
		{"scenario.sliced_share", "ratio", "higher"},
		{"scenario.lanes_per_sliced_run", "count", "higher"},
		{"sim.rounds_ms", "ms", "lower"},
		{"sim.ns_per_msg", "ns", "lower"},
		{"sim.parallel_speedup", "ratio", "higher"},
		{"topology.materialized_setup_ms", "ms", "lower"},
		{"topology.implicit_setup_ms", "ms", "lower"},
		{"campaign.eval_s", "s", "lower"},
		{"campaign.self_s", "s", "lower"},
		{"campaign.specs_per_eval", "count", "higher"},
		{"campaign.evaluated", "count", "higher"},
		{"campaign.waves", "count", "lower"},
		{"runtime.alloc_mb_per_sim", "MB", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"obs.trace_overhead_share", "ratio", "lower"},
		{"fail_share", "ratio", "lower"},
	}
	for _, l := range selfLayers {
		// The engine's share is the useful part; every other layer's
		// share is overhead around it.
		better := "lower"
		if l == "sim" {
			better = "higher"
		}
		defs = append(defs, metricDef{"self." + l + "_share", "ratio", better})
	}
	for _, p := range probePools() {
		slug := strings.ReplaceAll(p.name, "/", ".")
		defs = append(defs,
			metricDef{"sim.rounds." + slug, "count", "lower"},
			metricDef{"sim.messages." + slug, "count", "lower"},
			metricDef{"sim.bits." + slug, "count", "lower"})
	}
	return defs
}

// probePools are the pools whose first entry is run once per traced
// run for its exact round, message and bit counts.
func probePools() []*pool {
	var out []*pool
	for _, p := range allPools() {
		if p != &serveSweep {
			out = append(out, p)
		}
	}
	return out
}

// addProbes runs each probe and records its exact counts.
func addProbes(res *result) error {
	for _, p := range probePools() {
		rep, err := scenario.Run(p.specs(0)[0])
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		slug := strings.ReplaceAll(p.name, "/", ".")
		res.layer["sim.rounds."+slug] = float64(rep.Metrics.Rounds)
		res.layer["sim.messages."+slug] = float64(rep.Metrics.Messages)
		res.layer["sim.bits."+slug] = float64(rep.Metrics.Bits)
	}
	return nil
}
