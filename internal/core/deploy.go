package core

import (
	"fmt"

	"clustergate/internal/dataset"
	"clustergate/internal/fault"
	"clustergate/internal/obs"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// DeployOptions harden a closed-loop deployment. The zero value reproduces
// the bare Deploy path exactly.
type DeployOptions struct {
	// Guardrail enables the SLA guardrail watchdog: implausible telemetry
	// and sustained gated-degradation streaks force the safe dual-cluster
	// (high-performance) mode until the backoff expires. Nil disables it.
	Guardrail *Guardrail
	// Injector schedules deterministic faults into the deployment: the
	// per-trace view is derived from the trace's own seed, so schedules
	// are identical at any worker count. Nil injects nothing.
	Injector *fault.Injector
}

// Deployment observability: closed-loop trace deployments completed and
// individual gating predictions issued, for run manifests.
var (
	deploysDone = obs.NewCounter("core.deployments")
	predsIssued = obs.NewCounter("core.predictions")
)

// IntervalModel supplies per-interval base-signal vectors in place of the
// cycle model: given the global interval index, the mode in effect, the
// DRAM derate factor for the interval, and the number of intervals since
// the last mode switch (SteadySinceSwitch when no switch is in flight), it
// returns an estimate of what the exact simulator's ExtractBase delta
// would have been. The surrogate package implements it by splicing
// recorded fixed-mode telemetry and correcting with a learned residual.
//
// Implementations must be deterministic and must not retain or mutate the
// returned slice after handing it over; DeployOnModel treats it as owned.
type IntervalModel interface {
	IntervalBase(gidx int, mode uarch.Mode, derate float64, sinceSwitch int) []float64
}

// SteadySinceSwitch is the sinceSwitch value the deploy loop passes once a
// deployment is past any mode-switch transient (including the initial
// warmed-up high-performance state).
const SteadySinceSwitch = 1 << 20

// intervalSource feeds the deploy loop one interval at a time, with the
// same arguments as IntervalModel.IntervalBase; ok is false once the
// source has run dry.
type intervalSource interface {
	next(gidx int, mode uarch.Mode, derate float64, sinceSwitch int) (base []float64, ok bool)
}

// cycleSource is the exact source: the trace run through the cycle model.
type cycleSource struct {
	run *dataset.Runner
	// derated is set when an injector is present; only then does the
	// core's DRAM derate follow the fault schedule.
	derated bool
}

func (s *cycleSource) next(_ int, mode uarch.Mode, derate float64, _ int) ([]float64, bool) {
	s.run.Core.SetMode(mode)
	if s.derated {
		s.run.Core.SetMemDerate(derate)
	}
	base, n := s.run.Next()
	return base, n > 0
}

// modelSource is the surrogate source. It never runs dry: the loop stops
// at the recordings' last full window, and the model covers them all.
type modelSource struct{ im IntervalModel }

func (s modelSource) next(gidx int, mode uarch.Mode, derate float64, sinceSwitch int) ([]float64, bool) {
	return s.im.IntervalBase(gidx, mode, derate, sinceSwitch), true
}

// DeployWithOptions is the hardened deployment engine behind Deploy and
// DeployGuarded: it runs the controller closed-loop over one trace, on the
// cycle model, with optional fault injection and the optional guardrail
// watchdog layered over the model's decisions.
//
// Fault semantics mirror real silicon: telemetry faults corrupt only what
// the controller *observes* (execution and power accounting always use
// the true event stream); a dropped snapshot leaves the controller
// holding its previous decision; prediction faults hijack the model's
// output after it is computed. Pred records the model/fault pipeline's
// decisions (so PGOS/RSV measure the predictor), while Eff records the
// configuration actually applied after guardrail overrides (so effective
// SLA violations measure the system).
func DeployWithOptions(g *GatingController, tr *trace.Trace, ref *dataset.TraceTelemetry,
	cfg dataset.Config, pm *power.Model, opts DeployOptions) (*GuardedDeploymentResult, error) {
	return deploy("deploy/", g, tr, ref, pm, opts, func() intervalSource {
		cfg.Interval = g.Interval // snapshot at the controller's interval
		return &cycleSource{run: dataset.NewRunner(tr, cfg, uarch.ModeHighPerf), derated: opts.Injector != nil}
	})
}

// DeployOnModel runs the same closed loop as DeployWithOptions — decision
// pipeline, guardrail, fault injection, deployment RNG, flight recorder,
// events and counters — with per-interval vectors from im instead of the
// cycle model, so with a perfect model the result is identical. Its
// events are scoped "replay/<trace>", apart from the exact path's
// "deploy/<trace>", so one run can hold both for the same trace.
func DeployOnModel(g *GatingController, tr *trace.Trace, ref *dataset.TraceTelemetry,
	pm *power.Model, opts DeployOptions, im IntervalModel) (*GuardedDeploymentResult, error) {
	return deploy("replay/", g, tr, ref, pm, opts, func() intervalSource { return modelSource{im} })
}

// deploy is the closed loop behind both entry points. open is called once
// the arguments are validated and returns the interval source, already
// warmed up, in high-performance mode.
func deploy(scopePrefix string, g *GatingController, tr *trace.Trace, ref *dataset.TraceTelemetry,
	pm *power.Model, opts DeployOptions, open func() intervalSource) (*GuardedDeploymentResult, error) {
	if tr.Name != ref.TraceName {
		return nil, fmt.Errorf("core: trace %q does not match telemetry %q", tr.Name, ref.TraceName)
	}
	k := g.Granularity / g.Interval
	if k <= 0 {
		return nil, fmt.Errorf("core: invalid granularity/interval %d/%d", g.Granularity, g.Interval)
	}

	var state *guardrailState
	if opts.Guardrail != nil {
		gr := *opts.Guardrail
		gr.defaults()
		state = &guardrailState{cfg: gr}
	}
	ti := opts.Injector.ForTrace(tr.Seed)

	// Flight recorder + event log: only active when the process has an
	// event log installed (-events), so ordinary runs pay a single atomic
	// load. Everything recorded is derived from sim state — the interval
	// index is the clock — so event files are identical at any worker
	// count.
	scope := scopePrefix + tr.Name
	var flight *obs.Flight
	if obs.EventsActive() {
		flight = obs.NewFlight(scope, obs.DefaultFlightCap)
	}
	tripsSeen := 0
	var injectedSeen int64

	src := open()
	res := &GuardedDeploymentResult{}
	rng := newDeployRNG(tr.Seed)
	nWindows := ref.Intervals() / k

	// applied[w] is the configuration actually in effect during window w
	// (1 = gated), or -1 for windows the trace never reached.
	applied := make([]int8, nWindows)
	for i := range applied {
		applied[i] = -1
	}

	var window [][]float64
	var prevTrue, prevObserved []float64
	lowIntervals, totalIntervals := 0, 0
	// pending[w] is the mode decided for window w (two windows ahead).
	pending := make(map[int]uarch.Mode)
	prevPred := 0
	gidx := 0 // global interval index, the fault schedule's clock
	mode := uarch.ModeHighPerf
	sinceSwitch := SteadySinceSwitch

windows:
	for w := 0; w < nWindows; w++ {
		// Apply the decision made two windows ago (Figure 3 pipeline),
		// overridden to the safe mode while the guardrail backoff holds.
		if m, ok := pending[w]; ok {
			if state != nil && state.backoff > 0 {
				m = uarch.ModeHighPerf
			}
			if m != mode {
				res.Switches++
				mode = m
				sinceSwitch = 0
			}
			delete(pending, w)
		}
		gated := mode == uarch.ModeLowPower
		if gated {
			applied[w] = 1
		} else {
			applied[w] = 0
		}

		window = window[:0]
		windowDropped := false
		for i := 0; i < k; i++ {
			// DRAM-derate faults perturb real execution, not just the
			// telemetry view: memory-port throughput degrades for this
			// interval, so IPC, power, and every downstream counter shift.
			// MemDerate counts the injection, so it is read exactly once per
			// interval; the flight recorder reuses this value.
			derate := 1.0
			if ti != nil {
				derate = ti.MemDerate(gidx)
			}
			trueBase, ok := src.next(gidx, mode, derate, sinceSwitch)
			if !ok {
				break windows // a partial window makes no prediction
			}
			observed := trueBase
			if ti != nil {
				o, _, dropped := ti.Telemetry(gidx, trueBase, prevTrue)
				observed = o
				if dropped {
					windowDropped = true
					if state != nil {
						state.noteBlackout()
					}
				}
			}
			window = append(window, observed)
			// Power accounting always follows true execution: faults
			// corrupt the telemetry fabric, not the pipeline.
			ev := telemetry.BaseToEvents(trueBase)
			res.Adaptive.Add(pm, ev, mode)
			if gated {
				lowIntervals++
			}
			if state != nil {
				state.observeInterval(observed, prevObserved, gated)
				state.tick()
			}
			if flight != nil {
				sample := obs.FlightSample{T: int64(gidx), Power: pm.Energy(ev, mode), IPC: ev.IPC()}
				if derate != 1 {
					sample.MemDerate = derate
				}
				if gated {
					sample.Gated = 1
				}
				if state != nil {
					sample.Backoff = state.backoff
					sample.Trips = state.trips
				}
				flight.Record(sample)
				if state != nil && state.trips > tripsSeen {
					obs.Emit(scope, int64(gidx), "guardrail.trip", map[string]any{
						"reason":  state.reason,
						"trip":    state.trips,
						"backoff": state.cfg.BackoffIntervals,
					})
					if tripsSeen == 0 {
						// First trip of this deployment: freeze the flight
						// recorder's pre-incident window into the event log.
						flight.DumpIncident("guardrail.incident", map[string]any{"reason": state.reason})
					}
					tripsSeen = state.trips
				}
				if ti != nil {
					if inj := ti.Injected(); inj > injectedSeen {
						obs.Emit(scope, int64(gidx), "fault.injected", map[string]any{
							"count": inj - injectedSeen,
						})
						injectedSeen = inj
					}
				}
			}
			prevTrue = trueBase
			prevObserved = observed
			totalIntervals++
			gidx++
			if sinceSwitch < SteadySinceSwitch {
				sinceSwitch++
			}
		}

		// Predict for window w+2 from window w's observed telemetry.
		if w+2 < nWindows {
			agg, per := g.windowVectors(window, rng)
			pred := g.decide(mode, agg, per)
			if ti != nil {
				if windowDropped {
					// No fresh snapshot arrived: the controller cannot
					// form a new prediction. Under the default policy it
					// holds its last decision; under safe-mode-on-blackout
					// it requests the safe dual-cluster mode instead.
					if state != nil && state.cfg.SafeModeOnBlackout {
						pred = 0
					} else {
						pred = prevPred
					}
				}
				pred, _ = ti.Prediction(w, pred, prevPred)
			}
			res.Pred = append(res.Pred, pred)
			res.Truth = append(res.Truth, windowTruth(ref, w+2, k, g.SLA))
			prevPred = pred
			if pred == 1 {
				pending[w+2] = uarch.ModeLowPower
			} else {
				pending[w+2] = uarch.ModeHighPerf
			}
		}
	}

	// Reference span: the recorded always-high run.
	for i := 0; i < totalIntervals && i < len(ref.HighPerf); i++ {
		res.Reference.Add(pm, telemetry.BaseToEvents(ref.HighPerf[i].Base), uarch.ModeHighPerf)
	}
	if totalIntervals > 0 {
		res.LowResidency = float64(lowIntervals) / float64(totalIntervals)
	}

	// Eff: the configuration the system actually ran during each
	// prediction's target window; decisions whose window the trace never
	// reached fall back to the decision itself.
	res.Eff = make([]int, len(res.Pred))
	for idx := range res.Pred {
		if w := idx + 2; w < nWindows && applied[w] >= 0 {
			res.Eff[idx] = int(applied[w])
		} else {
			res.Eff[idx] = res.Pred[idx]
		}
	}

	if state != nil {
		res.GuardrailTrips = state.trips
		res.BlackoutOverrides = state.blackouts
	}
	res.InjectedFaults = ti.Injected()
	deploysDone.Inc()
	predsIssued.Add(int64(len(res.Pred)))
	return res, nil
}
