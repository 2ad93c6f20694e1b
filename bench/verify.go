package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"

	"lineartime/internal/campaign"
	"lineartime/internal/scenario"
	"lineartime/internal/serve"
)

// A pool is a numbered family of inputs one workload draws from. Entry
// i is the list of specs one call into the program runs — a single
// scenario.Run, a /v1/sweep, or a 64-lane batch — and the reference
// file holds one digest per entry, generated from the program with
// -gen-ref. Workloads pick entries by a seeded permutation, so any
// seed's inputs are covered by the reference.
type pool struct {
	name string
	size int
	// specs returns entry i.
	specs func(i int) []scenario.Spec
	// batch runs the entry through scenario.ExecuteBatch instead of
	// one scenario.Run per spec.
	batch bool
	// check tests the paper's properties on one report; nil for rows
	// with faults the properties do not survive.
	check func(*scenario.Report) error
	// envelope digests the serving layer's run envelope (content
	// address and report, serve.EncodeRunResponse) instead of the
	// bare report.
	envelope bool
}

// rowSpec is the registry row's canonical spec at (n, t, seed).
func rowSpec(row string, n, t int, seed uint64) scenario.Spec {
	return scenario.MustLookup(row).Spec(n, t, seed)
}

func single(prefix, row string, n, t, size int, base uint64, check func(*scenario.Report) error) pool {
	return pool{
		name:     fmt.Sprintf("%s/%s/n%d", prefix, row, n),
		size:     size,
		specs:    func(i int) []scenario.Spec { return []scenario.Spec{rowSpec(row, n, t, base+uint64(i))} },
		check:    check,
		envelope: prefix == "serve",
	}
}

// Pool sizes: enough entries that no run at this commit draws one
// twice (a repeat would be a cache hit instead of a cold run); a
// serve-mixed run at this commit draws under 1000 per row.
const (
	serveSize  = 2048
	sweepSize  = 1024
	scalarSize = 32
)

// The serve-mixed cold rows. Each pool has its own seed range, so no
// two pools ever ask for the same content address.
var (
	serveFew      = single("serve", "consensus/few-crashes", 256, 32, serveSize, 1_000_000, checkConsensus)
	serveFlooding = single("serve", "consensus/flooding", 512, 64, serveSize, 2_000_000, checkConsensus)
	serveGossip   = single("serve", "gossip/expander", 64, 8, serveSize, 3_000_000, checkGossip)
	serveByz      = single("serve", "byzantine/ab-consensus", 256, 4, serveSize, 4_000_000, checkByzantine)
	serveOmission = single("serve", "consensus/few-crashes/omission", 256, 32, serveSize, 5_000_000, nil)
	serveRows     = []*pool{&serveFew, &serveFlooding, &serveGossip, &serveByz, &serveOmission}
)

// sweepPoints are the sizes of every /v1/sweep request.
var sweepPoints = []int{64, 128, 192, 256}

var serveSweep = pool{
	name: "serve/sweep/consensus/few-crashes",
	size: sweepSize,
	specs: func(i int) []scenario.Spec {
		out := make([]scenario.Spec, len(sweepPoints))
		for j, n := range sweepPoints {
			out[j] = rowSpec("consensus/few-crashes", n, n/8, 6_000_000+uint64(i))
		}
		return out
	},
	check:    checkConsensus,
	envelope: true,
}

// floodingBatch is RunSeeds' input: flooding at n=1000 with 64 seeds,
// each lane crashing up to t random nodes of its own.
func floodingBatch(i int) (scenario.Spec, []uint64) {
	sp := rowSpec("consensus/flooding", 1000, 100, 0)
	sp.Fault = scenario.FaultModel{Kind: scenario.RandomCrashes, Count: 100, Horizon: 50}
	seeds := make([]uint64, 64)
	for j := range seeds {
		seeds[j] = 7_000_000 + uint64(64*i+j)
	}
	return sp, seeds
}

var batchFlooding = pool{
	name: "batch/runseeds/consensus/flooding/n1000",
	size: 96,
	specs: func(i int) []scenario.Spec {
		sp, seeds := floodingBatch(i)
		out := make([]scenario.Spec, len(seeds))
		for j, s := range seeds {
			out[j] = sp
			out[j].Seed = s
		}
		return out
	},
	batch: true,
	check: checkConsensus,
}

// batchGossip is ExecuteBatch's input: 64 gossip specs on one overlay
// (shared run seed, which gossip needs to slice) with per-lane crash
// adversaries.
var batchGossip = pool{
	name: "batch/executebatch/gossip/expander/n128",
	size: 96,
	specs: func(i int) []scenario.Spec {
		out := make([]scenario.Spec, 64)
		for j := range out {
			out[j] = rowSpec("gossip/expander", 128, 16, 8_000_000+uint64(i))
			out[j].Fault = scenario.FaultModel{
				Kind: scenario.RandomCrashes, Count: 16, Horizon: 40,
				Seed: 9_000_000 + uint64(64*i+j),
			}
		}
		return out
	},
	batch: true,
}

// The scalar-large rows. The parallel-engine run reuses the
// materialized pool: the engines must agree byte for byte.
var (
	scalarFew = single("scalar", "consensus/few-crashes", 4096, 512, scalarSize, 10_000_000, checkConsensus)
	scalarImp = pool{
		name: "scalar/consensus/few-crashes/implicit/n4096",
		size: scalarSize,
		specs: func(i int) []scenario.Spec {
			sp := rowSpec("consensus/few-crashes", 4096, 512, 10_000_000+uint64(i))
			sp.Topology, sp.Implicit = scenario.TopologyShift, true
			return []scenario.Spec{sp}
		},
		check: checkConsensus,
	}
	scalarByz    = single("scalar", "byzantine/ab-consensus", 2048, 8, scalarSize, 11_000_000, checkByzantine)
	scalarGossip = single("scalar", "gossip/expander", 256, 32, scalarSize, 12_000_000, checkGossip)
	scalarCkpt   = single("scalar", "checkpoint/expander", 256, 32, scalarSize, 14_000_000, checkCheckpoint)
)

// allPools lists every pool the reference file covers.
func allPools() []*pool {
	return []*pool{
		&serveFew, &serveFlooding, &serveGossip, &serveByz, &serveOmission, &serveSweep,
		&batchFlooding, &batchGossip,
		&scalarFew, &scalarImp, &scalarByz, &scalarGossip, &scalarCkpt,
	}
}

// digester hashes the JSON of one entry's reports, in order, one per
// line.
type digester struct{ h hash.Hash }

func newDigester() digester { return digester{sha256.New()} }

func (d digester) addJSON(b []byte) {
	d.h.Write(b)
	d.h.Write([]byte{'\n'})
}

func (d digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }

// reference is the committed digest set: pool name → entry digests.
type reference struct {
	Pools map[string][]string `json:"pools"`
}

const referenceFile = "reference.json"

func loadReference(dir string) (*reference, error) {
	data, err := os.ReadFile(filepath.Join(dir, referenceFile))
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", referenceFile, err)
	}
	for _, p := range allPools() {
		if len(ref.Pools[p.name]) != p.size {
			return nil, fmt.Errorf("%s: pool %s has %d digests, want %d", referenceFile, p.name, len(ref.Pools[p.name]), p.size)
		}
	}
	return &ref, nil
}

// verify compares an entry's digest with the reference.
func (r *reference) verify(p *pool, i int, got string) error {
	if want := r.Pools[p.name][i]; got != want {
		return fmt.Errorf("%s entry %d: report digest %s, reference %s", p.name, i, got, want)
	}
	return nil
}

// runEntry runs entry i the way the reference was generated.
func runEntry(p *pool, i int) ([]*scenario.Report, error) {
	sps := p.specs(i)
	if p.batch {
		reps, errs := scenario.ExecuteBatch(sps)
		return reps, errors.Join(errs...)
	}
	reps := make([]*scenario.Report, len(sps))
	for j, sp := range sps {
		rep, err := scenario.Run(sp)
		if err != nil {
			return nil, err
		}
		reps[j] = rep
	}
	return reps, nil
}

// checkEntry digests and property-checks entry i's reports. Reports
// are encoded and checked on every CPU: a 64-lane gossip batch is
// megabytes of JSON.
func checkEntry(p *pool, i int, reps []*scenario.Report) (string, error) {
	var sps []scenario.Spec
	if p.envelope {
		sps = p.specs(i)
	}
	enc := make([][]byte, len(reps))
	errs := make([]error, len(reps))
	workers := min(runtime.GOMAXPROCS(0), len(reps))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w; j < len(reps); j += workers {
				if p.envelope {
					enc[j], errs[j] = serve.EncodeRunResponse(sps[j].Key(), reps[j])
				} else {
					enc[j], errs[j] = json.Marshal(reps[j])
				}
				if errs[j] == nil && p.check != nil {
					if err := p.check(reps[j]); err != nil {
						errs[j] = fmt.Errorf("%s: %w", p.name, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return "", err
	}
	d := newDigester()
	for _, b := range enc {
		d.addJSON(b)
	}
	return d.sum(), nil
}

// generateReference runs every pool entry and writes the reference
// file. It refuses to write when any report breaks a property.
func generateReference(dir string, workers int) error {
	ref := reference{Pools: make(map[string][]string)}
	for _, p := range allPools() {
		digests := make([]string, p.size)
		errs := make([]error, p.size)
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					reps, err := runEntry(p, i)
					if err == nil {
						digests[i], err = checkEntry(p, i, reps)
					}
					errs[i] = err
				}
			}()
		}
		for i := 0; i < p.size; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		ref.Pools[p.name] = digests
		fmt.Fprintf(os.Stderr, "reference: %s (%d entries)\n", p.name, p.size)
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, referenceFile), append(data, '\n'), 0o644)
}

// checkConsensus checks §2 consensus on a report: every surviving node
// decides, all decisions agree, and the decision is some node's input
// (the registry's canonical inputs hold both values).
func checkConsensus(rep *scenario.Report) error {
	c := rep.Consensus
	if c == nil {
		return errors.New("consensus report has no consensus outcome")
	}
	crashed := make(map[int]bool, len(rep.Crashed))
	for _, v := range rep.Crashed {
		crashed[v] = true
	}
	decided := -1
	for i, d := range c.Decisions {
		if crashed[i] {
			continue
		}
		if d != 0 && d != 1 {
			return fmt.Errorf("%s n=%d: surviving node %d did not decide", rep.Scenario, rep.N, i)
		}
		if decided >= 0 && d != decided {
			return fmt.Errorf("%s n=%d: decisions disagree", rep.Scenario, rep.N)
		}
		decided = d
	}
	if !c.Agreement || !c.Validity {
		return fmt.Errorf("%s n=%d: agreement=%v validity=%v", rep.Scenario, rep.N, c.Agreement, c.Validity)
	}
	return nil
}

// checkGossip checks gossip completeness: every surviving node's
// extant set holds every surviving node's rumor (the canonical rumor of
// node j is j).
func checkGossip(rep *scenario.Report) error {
	g := rep.Gossip
	if g == nil {
		return errors.New("gossip report has no gossip outcome")
	}
	crashed := make(map[int]bool, len(rep.Crashed))
	for _, v := range rep.Crashed {
		crashed[v] = true
	}
	for i, view := range g.Extant {
		if crashed[i] {
			continue
		}
		for j := range g.Extant {
			if crashed[j] {
				continue
			}
			if r, ok := view[j]; !ok || r != uint64(j) {
				return fmt.Errorf("%s n=%d: node %d lacks node %d's rumor", rep.Scenario, rep.N, i, j)
			}
		}
	}
	if !g.Complete {
		return fmt.Errorf("%s n=%d: report says incomplete", rep.Scenario, rep.N)
	}
	return nil
}

// checkCheckpoint checks checkpoint agreement: an agreed extant set
// that holds every surviving node.
func checkCheckpoint(rep *scenario.Report) error {
	c := rep.Checkpoint
	if c == nil || !c.Agreement || c.ExtantSet == nil {
		return fmt.Errorf("%s n=%d: no checkpoint agreement", rep.Scenario, rep.N)
	}
	for i := 0; i < rep.N; i++ {
		if !slices.Contains(rep.Crashed, i) && !slices.Contains(c.ExtantSet, i) {
			return fmt.Errorf("%s n=%d: surviving node %d missing from the extant set", rep.Scenario, rep.N, i)
		}
	}
	return nil
}

// checkByzantine checks agreement among honest nodes; the rows run
// fault-free, so every node is honest and must decide.
func checkByzantine(rep *scenario.Report) error {
	b := rep.Byzantine
	if b == nil || !b.Agreement {
		return fmt.Errorf("%s n=%d: no Byzantine agreement", rep.Scenario, rep.N)
	}
	for i, ok := range b.Decided {
		if !ok || b.Decisions[i] != b.Decisions[0] {
			return fmt.Errorf("%s n=%d: node %d undecided or disagreeing", rep.Scenario, rep.N, i)
		}
	}
	return nil
}

// goldenCampaign is one of the committed chaos campaigns: its frontier
// must come out byte-equal to the file under testdata.
type goldenCampaign struct {
	scenario string
	want     []byte
}

func loadGoldenCampaigns(root string) ([]goldenCampaign, error) {
	var out []goldenCampaign
	for _, g := range []struct{ scenario, file string }{
		{"gossip/expander", "frontier_gossip_expander.json"},
		{"consensus/few-crashes", "frontier_consensus_few-crashes.json"},
	} {
		want, err := os.ReadFile(filepath.Join(root, "testdata", g.file))
		if err != nil {
			return nil, err
		}
		out = append(out, goldenCampaign{scenario: g.scenario, want: want})
	}
	return out, nil
}

// campaignSpec is the committed campaigns' configuration.
func campaignSpec(sc string) campaign.Spec {
	return campaign.Spec{
		Scenario: sc, N: 96, T: 16, Seed: 1,
		Budget: campaign.Budget{MaxSims: 48, MaxWaves: 3, TopK: 4},
	}
}

// scalarRun is the campaign controller's per-candidate evaluator.
func scalarRun(_ context.Context, sp scenario.Spec) (*scenario.Report, error) {
	return scenario.Run(sp)
}
