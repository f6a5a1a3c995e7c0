package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"clustergate/internal/core"
	"clustergate/internal/obs"
	"clustergate/internal/surrogate"
)

// SurrogateBenchResult compares the surrogate replay against the exact
// simulator on the test corpus: per-deployment latency, relative-IPC
// error distribution, and gating-decision agreement.
type SurrogateBenchResult struct {
	Traces  int
	Deploys int

	// Per-deployment wall-clock, nanoseconds. Timing fields never reach
	// stdout — only BENCH_surrogate-bench.json — so exact-mode output stays
	// byte-identical across machines.
	ExactNSPerDeploy  float64
	ReplayNSPerDeploy float64
	Speedup           float64

	// Relative IPC error of the surrogate's adaptive span vs exact.
	ErrP50, ErrP95, ErrMax float64
	// PredAgree is the fraction of prediction windows where surrogate and
	// exact deployments chose the same configuration.
	PredAgree float64

	Budget       float64
	WithinBudget bool

	TrainBackend string
	TrainSamples int
}

// SurrogateBench deploys the controller on every test trace twice — once
// through the exact simulator, once through the surrogate replay — and
// reduces the pair into accuracy and latency figures. The replay arm is
// repeated to stabilise the (much smaller) per-deploy timing.
func SurrogateBench(e *Env, m *surrogate.Model, g *core.GatingController, budget float64) (*SurrogateBenchResult, error) {
	defer obs.Start("surrogate.bench").End()
	if budget <= 0 {
		budget = 0.05
	}
	res := &SurrogateBenchResult{
		Traces:       len(e.SPEC.Traces),
		Budget:       budget,
		TrainBackend: m.Backend,
		TrainSamples: m.Samples,
	}

	const replayReps = 3
	var errs []float64
	var agree, windows int
	var exactNS, replayNS int64
	for i, tr := range e.SPEC.Traces {
		t0 := time.Now()
		exact, err := core.DeployWithOptions(g, tr, e.SPECTel[i], e.Cfg, e.PM, core.DeployOptions{})
		if err != nil {
			return nil, fmt.Errorf("experiments: surrogate-bench exact %s: %w", tr.Name, err)
		}
		exactNS += time.Since(t0).Nanoseconds()

		var sur *core.GuardedDeploymentResult
		t0 = time.Now()
		for rep := 0; rep < replayReps; rep++ {
			sur, err = m.Replay(g, tr, e.SPECTel[i], e.Cfg, e.PM, core.DeployOptions{})
			if err != nil {
				return nil, fmt.Errorf("experiments: surrogate-bench replay %s: %w", tr.Name, err)
			}
		}
		replayNS += time.Since(t0).Nanoseconds() / replayReps
		res.Deploys++

		if ipc := exact.Adaptive.IPC(); ipc > 0 {
			errs = append(errs, math.Abs(sur.Adaptive.IPC()/ipc-1))
		}
		for w := range exact.Pred {
			windows++
			if w < len(sur.Pred) && sur.Pred[w] == exact.Pred[w] {
				agree++
			}
		}
	}
	if res.Deploys > 0 {
		res.ExactNSPerDeploy = float64(exactNS) / float64(res.Deploys)
		res.ReplayNSPerDeploy = float64(replayNS) / float64(res.Deploys)
		if res.ReplayNSPerDeploy > 0 {
			res.Speedup = res.ExactNSPerDeploy / res.ReplayNSPerDeploy
		}
	}
	if len(errs) > 0 {
		sort.Float64s(errs)
		res.ErrP50 = quantileAt(errs, 0.50)
		res.ErrP95 = quantileAt(errs, 0.95)
		res.ErrMax = errs[len(errs)-1]
	}
	if windows > 0 {
		res.PredAgree = float64(agree) / float64(windows)
	}
	res.WithinBudget = res.ErrP95 <= budget
	e.logf("surrogate-bench: %d deploys, %.1fx speedup, p95 err %.4f", res.Deploys, res.Speedup, res.ErrP95)
	return res, nil
}

// quantileAt reads quantile q from an ascending-sorted slice using the
// same ceil convention as the surrogate trainer's holdout percentile.
func quantileAt(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// PrintSurrogateBench renders the deterministic half of the comparison:
// accuracy and agreement, never timings (those live in the JSON artifact
// so stdout stays machine-independent).
func PrintSurrogateBench(w io.Writer, r *SurrogateBenchResult) {
	fmt.Fprintln(w, "Surrogate vs exact simulator (test corpus)")
	fmt.Fprintf(w, "  traces %d  deploys %d  backend %s (%d samples)\n",
		r.Traces, r.Deploys, r.TrainBackend, r.TrainSamples)
	fmt.Fprintf(w, "  rel IPC error: p50 %.4f  p95 %.4f  max %.4f (budget %.2f, within=%v)\n",
		r.ErrP50, r.ErrP95, r.ErrMax, r.Budget, r.WithinBudget)
	fmt.Fprintf(w, "  prediction agreement: %.1f%%\n", 100*r.PredAgree)
}
