package main

import (
	"sort"
	"strings"
	"testing"

	"clustergate/internal/ctrlplane"
	"clustergate/internal/experiments"
	"clustergate/internal/obs"
)

// decl is a metric's declared gate and tolerance class.
type decl struct {
	gate obs.Gate
	tol  obs.Tol
}

var (
	exactCounter = decl{obs.GateExact, obs.TolCounter}
	exactMetric  = decl{obs.GateExact, obs.TolMetric}
	lowerTiming  = decl{obs.GateLowerBetter, obs.TolTiming}
	higherTiming = decl{obs.GateHigherBetter, obs.TolTiming}
	higherMetric = decl{obs.GateHigherBetter, obs.TolMetric}
	verdict      = decl{obs.GateVerdict, obs.TolMetric}
	warnTiming   = decl{obs.GateWarn, obs.TolTiming}
	warnMetric   = decl{obs.GateWarn, obs.TolMetric}
)

// checkDecls requires b to marshal and to declare exactly the keys of want,
// each with its gate and tolerance class: a producer that loosens a gate,
// renames a key or stops emitting one fails here.
func checkDecls(t *testing.T, b *obs.Bench, want map[string]decl) {
	t.Helper()
	if _, err := b.Marshal(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range b.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := b.Metrics[k]
		d, ok := want[k]
		switch {
		case !ok:
			t.Errorf("%s: undeclared metric %q", b.Name, k)
		case m.Gate != d.gate || m.Tol != d.tol:
			t.Errorf("%s: %s declared %s/%s, want %s/%s", b.Name, k, m.Gate, m.Tol, d.gate, d.tol)
		}
	}
	for k := range want {
		if _, ok := b.Metrics[k]; !ok {
			t.Errorf("%s: metric %q missing", b.Name, k)
		}
	}
}

func TestSoakDocDeclarations(t *testing.T) {
	r := &experiments.CtrlplaneResult{
		Machines: 100, Shards: 4,
		Good:        &ctrlplane.Report{Ticks: 30, Intervals: 5000, Decisions: 5010, Completed: true},
		Bad:         &ctrlplane.Report{RolledBack: true},
		WallSeconds: 2, MachinesPerSec: 50, DecisionsPerSec: 2500,
	}
	checkDecls(t, soakDoc(r), map[string]decl{
		"machines": exactCounter, "shards": exactCounter, "ticks": exactCounter,
		"intervals": exactCounter, "decisions": exactCounter,
		"machines_per_sec": higherTiming, "decisions_per_sec": higherTiming,
		"p95_decision_ms": lowerTiming, "wall_seconds": warnTiming,
		"completed": verdict, "bad_caught": verdict,
	})
}

func TestChurnDocDeclarations(t *testing.T) {
	r := &experiments.CtrlplaneChurnResult{
		Machines: 100,
		Arms: []experiments.ChurnArm{{
			Key: "churn05-lease2", ChurnRate: 0.05, LeaseTicks: 2,
			Report: &ctrlplane.Report{Machines: 100, Installed: 97, Completed: true, Leaves: 4, Joins: 6},
		}},
		Bad: &ctrlplane.Report{RolledBack: true, HaltedRing: 0},
	}
	want := map[string]decl{
		"machines": exactCounter, "good_completed": verdict, "bad_caught": verdict,
		"p95_decision_ms": lowerTiming, "wall_seconds": warnTiming,
	}
	for k, d := range map[string]decl{
		"churn_rate": exactMetric, "lease_ticks": exactMetric, "completed": verdict,
		"completion_rate": higherMetric,
		"leaves":          exactCounter, "joins": exactCounter, "catch_up_flashes": exactCounter,
		"stale_quarantines": exactCounter, "gate_deferrals": exactCounter,
	} {
		want["churn05-lease2."+k] = d
	}
	b := churnDoc(r)
	checkDecls(t, b, want)

	// A completion rate is a share of the fleet: a count past the fleet
	// size is a producer bug, and the document refuses to marshal.
	r.Arms[0].Report.Installed = 101
	if _, err := churnDoc(r).Marshal(); err == nil || !strings.Contains(err.Error(), "outside [0, 1]") {
		t.Fatalf("completion rate above 1 marshalled: %v", err)
	}
}

func TestSurrogateDocDeclarations(t *testing.T) {
	r := &experiments.SurrogateBenchResult{
		Traces: 4, Deploys: 8, TrainSamples: 900,
		ExactNSPerDeploy: 1e6, ReplayNSPerDeploy: 1e4, Speedup: 100,
		ErrP50: 0.01, ErrP95: 0.03, ErrMax: 0.04, PredAgree: 0.9,
		Budget: 0.05, WithinBudget: true, TrainBackend: "forest",
	}
	checkDecls(t, surrogateDoc(r), map[string]decl{
		"traces": exactCounter, "deploys": exactCounter, "samples": exactCounter,
		"exact_ns_per_deploy": lowerTiming, "surrogate_ns_per_deploy": lowerTiming,
		"speedup": warnTiming,
		"err_p50": lowerTiming, "err_p95": lowerTiming, "err_max": lowerTiming,
		"pred_agreement": warnMetric, "budget": exactMetric, "within_budget": verdict,
	})
}

// The guardrail-sweep and fleet-rollout outcomes are gated in the results
// file; their bench documents carry one count and the full result table,
// whose signed PPW gains never reach the metric validator.
func TestDetailDocDeclarations(t *testing.T) {
	sweep := &experiments.GuardrailSweepResult{
		WatchdogOps: 180,
		Rows:        []experiments.SweepRow{{Key: "trip1-bo32", PPW: -0.004}},
	}
	checkDecls(t, detailDoc("guardrail-sweep", "watchdog.ops", sweep.WatchdogOps, sweep),
		map[string]decl{"watchdog.ops": exactCounter})
	rollout := &experiments.FleetRolloutResult{Machines: 24}
	checkDecls(t, detailDoc("fleet-rollout", "machines", rollout.Machines, rollout),
		map[string]decl{"machines": exactCounter})
}
