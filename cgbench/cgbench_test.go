package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []decl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndDecls)
	check("per_layer", bj.PerLayer, perLayerDecls)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloadNames())
	}
}

// TestWorkloads runs every workload twice, untraced at nproc workers and
// traced at one worker: every printed metric must be declared with its
// unit, every check must pass, and the simulated-statistic digests must
// not depend on the worker count.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workload runs take minutes")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			wide, err := execute(options{workload: name, seed: 3, seconds: 0.1, workers: runtime.NumCPU()})
			if err != nil {
				t.Fatal(err)
			}
			narrow, err := execute(options{workload: name, seed: 3, seconds: 0.1, trace: true, workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, wide.res.Metrics, endToEndDecls)
			checkMetrics(t, narrow.res.Metrics, perLayerDecls)
			for _, rep := range []*report{wide, narrow} {
				if rep.res.Attempted < 1 {
					t.Errorf("attempted %d operations", rep.res.Attempted)
				}
				if rep.res.Failed > 0 {
					t.Errorf("%d failed operations: %v", rep.res.Failed, rep.notes)
				}
			}
			if wide.setupDigest != narrow.setupDigest || wide.roundDigest != narrow.roundDigest {
				t.Errorf("digests differ between %d workers (%s, %s) and 1 worker (%s, %s)", runtime.NumCPU(),
					wide.setupDigest, wide.roundDigest, narrow.setupDigest, narrow.roundDigest)
			}
		})
	}
}

func checkMetrics(t *testing.T, got map[string]metric, want []decl) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, declared %d", len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.name]
		if !ok {
			t.Errorf("declared metric %s not printed", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s printed in %q, declared in %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestPlantedFailureCounts ships the good image as the "bad" one: the
// campaign is not halted, and the run must count that as a failed
// operation.
func TestPlantedFailureCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two fleet campaigns")
	}
	work := t.TempDir()
	r, err := setupFleet(&env{seed: 5, workers: runtime.NumCPU(), work: work})
	if err != nil {
		t.Fatal(err)
	}
	f := r.(*fleetCampaign)
	honest := &checks{}
	f.round(nil, honest)
	if honest.failed != 0 {
		t.Fatalf("unplanted round failed: %v", honest.failures)
	}
	f.badImg = f.img
	planted := &checks{}
	f.round(nil, planted)
	if planted.failed == 0 || planted.attempted != honest.attempted {
		t.Fatalf("planted round: %d of %d failed, want ≥1 of %d", planted.failed, planted.attempted, honest.attempted)
	}
	if !strings.Contains(strings.Join(planted.failures, "\n"), "bad campaign") {
		t.Errorf("failures %v do not name the bad campaign", planted.failures)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := countAbove(xs, 0.5); got != 2 {
		t.Errorf("countAbove(0.5) = %d, want 2", got)
	}
}
