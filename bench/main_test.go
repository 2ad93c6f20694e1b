package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// The request sequence of serve-mixed comes from the seed alone.
func TestPlanDeterministicPerSeed(t *testing.T) {
	plan := func(seed uint64) []serveReq {
		return newServeMix(seed).plan(seed, 0, 100, 3*time.Second)
	}
	a, b := plan(7), plan(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two plans from seed 7 differ")
	}
	if reflect.DeepEqual(a, plan(8)) {
		t.Fatal("seeds 7 and 8 gave the same plan")
	}
	if len(a) != 300 {
		t.Fatalf("plan has %d requests, want rate·duration = 300", len(a))
	}
	hot, sweeps := 0, 0
	for i, r := range a {
		if i > 0 && r.due < a[i-1].due {
			t.Fatal("due times not ascending")
		}
		if r.path == "/v1/sweep" {
			sweeps++
		}
		for _, h := range newServeMix(7).hot {
			if r.pool == h.pool && r.idx == h.idx {
				hot++
			}
		}
	}
	if hot != 120 || sweeps != 12 {
		t.Fatalf("hot=%d sweeps=%d, want exact shares 120 and 12", hot, sweeps)
	}
}

// A cold entry is never dealt twice within a run.
func TestColdEntriesDistinct(t *testing.T) {
	m := newServeMix(3)
	seen := make(map[[2]any]bool)
	for _, h := range m.hot {
		seen[[2]any{h.pool, h.idx}] = true
	}
	for phase := 0; phase < 4; phase++ {
		for _, r := range m.plan(3, phase, 150, 2*time.Second) {
			k := [2]any{r.pool, r.idx}
			isHot := false
			for _, h := range m.hot {
				isHot = isHot || (h.pool == r.pool && h.idx == r.idx)
			}
			if !isHot && seen[k] {
				t.Fatalf("entry %s/%d dealt twice", r.pool.name, r.idx)
			}
			seen[k] = true
		}
	}
}

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json names exactly the metrics the benchmark prints, and
// every name and unit is well-formed.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better=%q", name, better)
		}
	}
	for _, w := range bf.Workloads {
		checkName(w.Name, "x", "lower")
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		checkName(m.Name, m.Unit, m.Better)
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("end-to-end %d: file %+v, benchmark %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	pl := perLayer()
	if len(bf.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(bf.PerLayer), len(pl))
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name, m.Unit, m.Better)
		if want := pl[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer %d: file %+v, benchmark %+v", i, m, want)
		}
	}
}

func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 1}, {19, 1}, {20, 0.5}, {100, 0.9}, {1000, 0.99}, {5000, 0.99}} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// Self time subtracts the union of the children, clipped to the parent.
func TestCovered(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := covered(p, kids); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}
