package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"clustergate/internal/core"
	"clustergate/internal/counters"
	"clustergate/internal/ctrlplane"
	"clustergate/internal/dataset"
	"clustergate/internal/fault"
	"clustergate/internal/fleet"
	"clustergate/internal/mcu"
	"clustergate/internal/metrics"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
	"clustergate/internal/power"
	"clustergate/internal/surrogate"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// Input sizes. Every workload is a fixed amount of work per round, so
// wall_s compares across commits; the run length only sets how many
// rounds are measured.
const (
	// fwApps and fwInstrs size the firmware-build corpus: one trace per
	// application, 30 recorded intervals per trace (enough prediction
	// windows at the budget's 40-50k granularity).
	fwApps   = 20
	fwInstrs = 350_000
	// trainInstrs is the length of the SPEC-like traces the other
	// workloads train their controller on during setup.
	trainInstrs = 350_000
	// specTraces SPEC-like traces of specInstrs instructions are what
	// firmware gets deploy-checked, swept, replayed and soaked on.
	specTraces    = 8
	specInstrs    = 300_000
	fwCheckTraces = 4
	// replayReps is how often one surrogate-sweep step replays its arm,
	// so a step lasts long enough (~0.1 s) to time net of steal, which
	// /proc/stat counts in 10 ms ticks.
	replayReps = 160
	// spotChecks exact deployments measure the surrogate's error after
	// the timed phase, against the 5% p95 relative-IPC error budget that
	// validate mode enforces.
	spotChecks      = 12
	surrogateBudget = 0.05
	// fleetMachines is each campaign's datacenter size; maxTicks bounds
	// a campaign the benchmark drives tick by tick.
	fleetMachines = 2000
	maxTicks      = 500
)

// env is what every workload's setup receives.
type env struct {
	seed    int64
	workers int
	// work is the run's scratch directory inside the checkout.
	work string
}

// runner is one set-up workload.
type runner interface {
	// setupDigest hashes the simulated outputs of setup (reference
	// telemetry, firmware image); every setup of a run must agree.
	setupDigest() string
	// round runs one fixed-size round; a non-nil tracer records spans.
	round(tr *tracer, chk *checks) *roundOut
	// layers runs the sub-passes of a traced round and returns its
	// per-layer metrics; counters is the round's obs counter delta.
	layers(tr *tracer, out *roundOut, counters map[string]int64, wall float64, workers int) map[string]float64
	// after runs the post-timed-phase checks and returns any per-layer
	// metrics they measure.
	after(chk *checks) map[string]float64
	notes() []string
}

// workloads maps each workload name to its setup.
var workloads = map[string]func(e *env) (runner, error){
	"firmware-build":  setupFirmwareBuild,
	"deploy-sweep":    func(e *env) (runner, error) { return setupSweep(e, false) },
	"surrogate-sweep": func(e *env) (runner, error) { return setupSweep(e, true) },
	"fleet-campaign":  setupFleet,
}

func workloadNames() []string {
	return []string{"firmware-build", "deploy-sweep", "surrogate-sweep", "fleet-campaign"}
}

// sla is the paper's SLA: low-power mode must keep 90% of high-perf IPC.
var sla = dataset.SLA{PSLA: 0.9}

func datasetConfig(workers int) dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// specSubset returns the first trace of n SPEC-like benchmarks spread
// evenly over the suite, reseeded from the run's seed, and records their
// reference telemetry.
func specSubset(e *env, cfg dataset.Config, n int) ([]*trace.Trace, []*dataset.TraceTelemetry) {
	c := trace.BuildSPEC(trace.SPECConfig{TracesPerWorkload: 1, InstrsPerTrace: specInstrs, Seed: 2, Workers: e.workers})
	first := map[string]*trace.Trace{}
	var benches []string
	for _, tr := range c.Traces {
		if _, ok := first[tr.App.Benchmark]; !ok {
			first[tr.App.Benchmark] = tr
			benches = append(benches, tr.App.Benchmark)
		}
	}
	picked := make([]*trace.Trace, n)
	for i := range picked {
		picked[i] = first[benches[i*len(benches)/n]]
	}
	reseed(picked, e.seed, 2)
	tel := dataset.SimulateCorpus(&trace.Corpus{Name: "spec-subset", Traces: picked}, cfg)
	return picked, tel
}

// Corpora are generated from fixed seeds — the applications, benchmark
// profiles and trace lengths are the same in every run, so rounds of
// different seeds do comparable work — and reseed gives each of their
// traces a seed drawn from the run's seed and a per-corpus salt: every
// instruction stream, and the fault schedules and deployment noise keyed
// by trace seeds, follow --seed.
func reseed(traces []*trace.Trace, seed, salt int64) {
	r := rand.New(rand.NewSource(seed*0x9e3779b1 + salt))
	for _, tr := range traces {
		tr.Seed = r.Int63()
	}
}

func digestTelemetry(d *digest, tel []*dataset.TraceTelemetry) {
	for _, tt := range tel {
		d.s(tt.TraceName)
		for _, recs := range [][]dataset.IntervalRecord{tt.HighPerf, tt.LowPower} {
			d.i(len(recs))
			for _, r := range recs {
				d.f(r.IPC)
				d.f(r.Base...)
			}
		}
	}
}

func digestDeploy(d *digest, r *core.GuardedDeploymentResult, win metrics.SLAWindow) {
	d.f(r.PPWGain(), r.EffectiveEval(win).RSV, r.LowResidency,
		r.Adaptive.Energy, r.Reference.Energy)
	d.i(int(r.Adaptive.Cycles), int(r.Adaptive.Instrs), r.Switches, r.GuardrailTrips, int(r.InjectedFaults), int(r.BlackoutOverrides))
	for _, s := range [][]int{r.Pred, r.Truth, r.Eff} {
		d.i(len(s))
		d.i(s...)
	}
}

func sealImage(g *core.GatingController) ([]byte, error) {
	var buf bytes.Buffer
	if err := core.SaveController(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// opsExecuted sums the op meters of a controller's two firmware models.
func opsExecuted(g *core.GatingController) int64 {
	var n int64
	for _, p := range []core.Predictor{g.HighPerf, g.LowPower} {
		if pp, ok := p.(core.PointPredictor); ok {
			if fw, ok := pp.M.(*mcu.Firmware); ok {
				n += int64(fw.OpsExecuted())
			}
		}
	}
	return n
}

// deployStats averages PPW gain and effective SLA-violation rate over
// deployments, in percent.
func deployStats(rs []*core.GuardedDeploymentResult, win metrics.SLAWindow) (ppwPct, rsvPct float64) {
	for _, r := range rs {
		ppwPct += r.PPWGain() * 100
		rsvPct += r.EffectiveEval(win).RSV * 100
	}
	n := float64(len(rs))
	return ppwPct / n, rsvPct / n
}

// ---------------------------------------------------------------------
// firmware-build

// firmwareBuild records a fresh HDTR-style corpus through the telemetry
// cache (cold write, then warm read), selects counters, trains both best
// models, seals the RF into a firmware image and deploy-checks the image
// on held-out SPEC-like traces.
type firmwareBuild struct {
	e        *env
	cfg      dataset.Config // Workers 1: the benchmark's closed loop fans traces out
	pm       *power.Model
	cs       *telemetry.CounterSet
	corpus   *trace.Corpus
	check    []*trace.Trace
	checkTel []*dataset.TraceTelemetry
	setupDig string
	// last traced round's state, for its sub-passes.
	lastCtrl   *core.GatingController
	lastDeploy []*core.GuardedDeploymentResult
}

func setupFirmwareBuild(e *env) (runner, error) {
	f := &firmwareBuild{e: e, cfg: datasetConfig(1), pm: power.DefaultModel(), cs: telemetry.NewStandardCounterSet()}
	// The corpus itself does not follow --seed: PF selection's Jacobi
	// sweeps converge in a data-dependent number of iterations, so a
	// reseeded corpus alone spreads the round time by ±15% from seed to
	// seed. The seed drives the controllers' training and calibration
	// seeds and the deploy-check traces instead.
	f.corpus = trace.BuildHDTR(trace.HDTRConfig{Apps: fwApps, MeanTracesPerApp: 1, InstrsPerTrace: fwInstrs, Seed: 1, Workers: e.workers})
	f.check, f.checkTel = specSubset(e, datasetConfig(e.workers), fwCheckTraces)
	d := newDigest()
	for _, tr := range f.corpus.Traces {
		d.s(tr.Name)
		d.i(int(tr.Seed), tr.StartPhase, tr.NumInstrs)
	}
	digestTelemetry(d, f.checkTel)
	f.setupDig = d.sum()
	return f, nil
}

func (f *firmwareBuild) setupDigest() string { return f.setupDig }
func (f *firmwareBuild) notes() []string     { return nil }
func (f *firmwareBuild) after(*checks) map[string]float64 {
	return nil
}

// closedLoop runs fn over n items on the benchmark's workers through the
// program's worker pool — each worker takes the next item only when its
// previous one completes — and returns each item's latency in seconds, net
// of steal.
func closedLoop(workers, n int, fn func(i int)) []float64 {
	lat := make([]float64, n)
	parallel.ForEach(workers, n, func(i int) error {
		ht := startHostTimer()
		fn(i)
		lat[i] = ht.net()
		return nil
	})
	return lat
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func (f *firmwareBuild) round(tr *tracer, chk *checks) *roundOut {
	out := &roundOut{sim: map[string]float64{}}
	instrs0 := obs.CounterValue("uarch.instructions")
	dir, err := os.MkdirTemp(f.e.work, "fw-cache-")
	if err != nil {
		chk.expect(false, "cache dir: %v", err)
		return out
	}
	defer os.RemoveAll(dir)

	n := len(f.corpus.Traces)
	single := func(i int) *trace.Corpus {
		t := f.corpus.Traces[i]
		return &trace.Corpus{Name: f.corpus.Name, Apps: []*trace.Application{t.App}, Traces: []*trace.Trace{t}}
	}
	tel := make([]*dataset.TraceTelemetry, n)
	errs := make([]error, n)
	out.steps = closedLoop(f.e.workers, n, func(i int) {
		var tt []*dataset.TraceTelemetry
		tt, errs[i] = dataset.SimulateCorpusCached(single(i), f.cfg, dir)
		if errs[i] == nil && len(tt) == 1 {
			tel[i] = tt[0]
		}
	})
	tr.add("dataset.record", sum(out.steps))
	want := (fwInstrs - f.cfg.Warmup) / f.cfg.Interval
	for i, tt := range tel {
		chk.expect(errs[i] == nil && tt != nil && len(tt.HighPerf) == want && len(tt.LowPower) == want,
			"trace %s: recorded %v intervals, want %d (err %v)", f.corpus.Traces[i].Name, intervalsOf(tt), want, errs[i])
	}

	hits0 := dataset.ReadCacheStats().Hits
	back := make([]*dataset.TraceTelemetry, n)
	readLat := closedLoop(f.e.workers, n, func(i int) {
		if tt, err := dataset.SimulateCorpusCached(single(i), f.cfg, dir); err == nil && len(tt) == 1 {
			back[i] = tt[0]
		}
	})
	tr.add("dataset.cache_read", sum(readLat))
	chk.expect(dataset.ReadCacheStats().Hits-hits0 == int64(n), "warm read: %d cache hits, want %d", dataset.ReadCacheStats().Hits-hits0, n)
	for i := range tel {
		a, b := newDigest(), newDigest()
		if tel[i] != nil {
			digestTelemetry(a, tel[i:i+1])
		}
		if back[i] != nil {
			digestTelemetry(b, back[i:i+1])
		}
		chk.expect(back[i] != nil && a.sum() == b.sum(), "trace %s: warm read differs from the recording", f.corpus.Traces[i].Name)
	}
	for i := range tel {
		if tel[i] == nil {
			return out // recording failed; already counted
		}
	}

	end := tr.span("telemetry.expand")
	raw := dataset.CounterTraces(tel, f.cs, uarch.ModeLowPower)
	end()
	end = tr.span("counters.select")
	cols, err := counters.Select(raw, counters.DefaultScreens(), counters.DefaultPFConfig())
	end()
	chk.expect(err == nil && len(cols) == counters.DefaultPFConfig().R, "PF selection: %d counters (err %v)", len(cols), err)
	if err != nil {
		return out
	}

	in := core.BuildInputs{Tel: tel, Counters: f.cs, Columns: cols, SLA: sla, Spec: mcu.DefaultSpec(), Seed: f.e.seed, Guardrail: true}
	end = tr.span("ml.train")
	rf, rfErr := core.BuildBestRF(in)
	mlp, mlpErr := core.BuildBestMLP(in)
	end()
	chk.expect(rfErr == nil && rf.Validate(mcu.DefaultSpec()) == nil, "best-rf: build %v", rfErr)
	chk.expect(mlpErr == nil && mlp.Validate(mcu.DefaultSpec()) == nil, "best-mlp: build %v", mlpErr)
	if rfErr != nil || mlpErr != nil {
		return out
	}
	img, err := sealImage(rf)
	chk.expect(err == nil, "sealing best-rf: %v", err)
	end = tr.span("core.image_decode")
	ctrl, err := core.LoadController(bytes.NewReader(img))
	end()
	chk.expect(err == nil, "loading the best-rf image: %v", err)
	if err != nil {
		return out
	}

	ops0 := opsExecuted(ctrl)
	gr := core.DefaultGuardrail()
	res := make([]*core.GuardedDeploymentResult, len(f.check))
	derrs := make([]error, len(f.check))
	deployLat := closedLoop(f.e.workers, len(f.check), func(i int) {
		res[i], derrs[i] = core.DeployWithOptions(ctrl, f.check[i], f.checkTel[i], f.cfg, f.pm, core.DeployOptions{Guardrail: &gr})
	})
	tr.add("core.deploy", sum(deployLat))
	for i, err := range derrs {
		chk.expect(err == nil, "deploy-check on %s: %v", f.check[i].Name, err)
		if err != nil {
			return out
		}
	}
	f.lastCtrl, f.lastDeploy = ctrl, res

	d := newDigest()
	digestTelemetry(d, tel)
	d.i(cols...)
	for _, g := range []*core.GatingController{rf, mlp} {
		d.f(g.ThresholdHigh, g.ThresholdLow)
		d.i(g.Granularity, g.OpsPerPrediction, g.WatchdogOps)
	}
	d.bytes(img)
	win := ctrl.Window()
	for _, r := range res {
		digestDeploy(d, r, win)
	}
	out.digest = d.sum()
	out.instrs = obs.CounterValue("uarch.instructions") - instrs0
	out.deploys = int64(len(res))
	ppw, rsv := deployStats(res, win)
	out.sim["core.ppw_gain_pct"] = ppw
	out.sim["core.rsv_pct"] = rsv
	out.sim["mcu.ops_per_pred"] = float64(rf.OpsPerPrediction)
	out.sim["mlp.ops_per_pred"] = float64(mlp.OpsPerPrediction)
	out.sim["counters.selected"] = float64(len(cols))
	out.sim["mcu.ops_executed"] = float64(opsExecuted(ctrl) - ops0)
	return out
}

func intervalsOf(tt *dataset.TraceTelemetry) [2]int {
	if tt == nil {
		return [2]int{}
	}
	return [2]int{len(tt.HighPerf), len(tt.LowPower)}
}

func (f *firmwareBuild) layers(tr *tracer, out *roundOut, cnt map[string]int64, wall float64, workers int) map[string]float64 {
	// Recording is re-run on every second trace and scaled to the corpus.
	sampled := (len(f.corpus.Traces) + 1) / 2
	rec := fanOut(workers, sampled, func(i int, part *nested) {
		subRecord(f.corpus.Traces[2*i], f.cfg, uarch.ModeHighPerf, part)
		subRecord(f.corpus.Traces[2*i], f.cfg, uarch.ModeLowPower, part)
	})
	rec.scale(float64(len(f.corpus.Traces)) / float64(sampled))
	dep := &nested{}
	if f.lastDeploy != nil {
		gr := core.DefaultGuardrail()
		dep = fanOut(workers, len(f.check), func(i int, part *nested) {
			subDeploy(f.lastCtrl, f.check[i], f.checkTel[i], f.cfg, core.DeployOptions{Guardrail: &gr}, f.lastDeploy[i], part)
		})
	}
	m := commonLayers(tr, out, cnt)
	all := &nested{}
	all.merge(rec)
	all.merge(dep)
	putNested(m, all)
	m["telemetry.expand_s"] += tr.busy["telemetry.expand"]
	m["dataset.record_s"] = tr.busy["dataset.record"]
	m["dataset.cache_read_s"] = tr.busy["dataset.cache_read"]
	m["counters.select_s"] = tr.busy["counters.select"]
	m["ml.train_s"] = tr.busy["ml.train"]
	m["core.image_decode_s"] = tr.busy["core.image_decode"]
	m["core.image_decodes"] = 1
	m["core.deploy_s"] = tr.busy["core.deploy"]
	m["core.deploy_self_s"] = math.Max(0, tr.busy["core.deploy"]-dep.total())
	recordSelf := math.Max(0, tr.busy["dataset.record"]-rec.total())
	self := recordSelf + rec.total() + m["dataset.cache_read_s"] + tr.busy["telemetry.expand"] +
		m["counters.select_s"] + m["ml.train_s"] + m["core.image_decode_s"] + m["core.deploy_s"]
	m["obs.self_sum_pct"] = 100 * self / (wall * float64(workers))
	return m
}

// commonLayers fills the per-layer metrics every workload reads the same
// way: obs counter deltas of the round and its simulated statistics.
func commonLayers(tr *tracer, out *roundOut, cnt map[string]int64) map[string]float64 {
	m := map[string]float64{}
	for _, name := range []string{
		"uarch.instructions", "uarch.cycles", "dataset.intervals_recorded",
		"dataset.cache.bytes_written", "dataset.cache.bytes_read", "dataset.cache.hits", "dataset.cache.misses",
		"core.deployments", "core.predictions", "core.guardrail.trips", "fault.injected",
		"fleet.flash.attempts", "fleet.flash.retries", "fleet.crc.rejections",
		"ctrlplane.intervals.ingested", "ctrlplane.batches", "ctrlplane.ingest.blocked", "ctrlplane.decisions",
		"parallel.tasks", "parallel.retries",
	} {
		m[name] = float64(cnt[name])
	}
	for k, v := range out.sim {
		m[k] = v
	}
	return m
}

// putNested stores sub-pass timings under their layers' metrics.
func putNested(m map[string]float64, n *nested) {
	m["trace.gen_s"] = n.gen
	m["uarch.exec_s"] = n.exec
	m["telemetry.expand_s"] = n.expand
	m["telemetry.snapshot_s"] = n.snapshot
	m["surrogate.interval_s"] = n.interval
	if n.gen > 0 {
		m["trace.minstr_per_s"] = float64(n.genInstrs) / n.gen / 1e6
	}
	if n.exec > 0 {
		m["uarch.minstr_per_s"] = float64(n.genInstrs) / n.exec / 1e6
	}
	m["uarch.batch_p95_ms"] = quantile(n.batches, 0.95) * 1e3
}

// ---------------------------------------------------------------------
// shared controller setup

// trained is the set-up state of the sweeps and the fleet campaign: a
// best-rf controller trained on one SPEC-like trace per benchmark over the
// paper's Table 4 counters, sealed into a firmware image and loaded back,
// plus the SPEC-like traces it is deployed on — other inputs of the same
// benchmarks — and their reference telemetry.
type trained struct {
	e      *env
	cfg    dataset.Config
	pm     *power.Model
	ctrl   *core.GatingController
	img    []byte
	corpus *trace.Corpus // training traces
	tel    []*dataset.TraceTelemetry
	traces []*trace.Trace // deployment traces
	ref    []*dataset.TraceTelemetry
}

func train(e *env) (*trained, error) {
	t := &trained{e: e, cfg: datasetConfig(e.workers), pm: power.DefaultModel()}
	spec := trace.BuildSPEC(trace.SPECConfig{TracesPerWorkload: 1, InstrsPerTrace: trainInstrs, Seed: 3, Workers: e.workers})
	t.corpus = &trace.Corpus{Name: "spec-train"}
	seen := map[string]bool{}
	for _, tr := range spec.Traces {
		if !seen[tr.App.Benchmark] {
			seen[tr.App.Benchmark] = true
			t.corpus.Traces = append(t.corpus.Traces, tr)
		}
	}
	reseed(t.corpus.Traces, e.seed, 3)
	t.tel = dataset.SimulateCorpus(t.corpus, t.cfg)
	cs := telemetry.NewStandardCounterSet()
	cols, err := core.ColumnsByName(cs, telemetry.Table4Names())
	if err != nil {
		return nil, err
	}
	g, err := core.BuildBestRF(core.BuildInputs{Tel: t.tel, Counters: cs, Columns: cols, SLA: sla,
		Spec: mcu.DefaultSpec(), Seed: e.seed, Guardrail: true, GroupByBenchmark: true})
	if err != nil {
		return nil, fmt.Errorf("training best-rf: %w", err)
	}
	if t.img, err = sealImage(g); err != nil {
		return nil, err
	}
	if t.ctrl, err = core.LoadController(bytes.NewReader(t.img)); err != nil {
		return nil, err
	}
	t.traces, t.ref = specSubset(e, t.cfg, specTraces)
	return t, nil
}

func (t *trained) digest() *digest {
	d := newDigest()
	d.bytes(t.img)
	digestTelemetry(d, t.tel)
	digestTelemetry(d, t.ref)
	return d
}

// ---------------------------------------------------------------------
// deploy-sweep and surrogate-sweep

// arm is one deployment of the sweep: a trace under one guardrail setting
// and one fault plan.
type arm struct {
	ti    int
	guard bool
	plan  string
	inj   *fault.Injector
}

// sweep deploys the trained controller over every arm: exactly through
// core.DeployWithOptions, or replayed through the surrogate model.
type sweep struct {
	*trained
	replay   bool
	model    *surrogate.Model
	trainS   float64
	arms     []arm
	setupDig string
	lastRes  []*core.GuardedDeploymentResult
	// overBudget is after's note when the spot checks exceed the budget.
	overBudget string
}

// faultPlans are the sweep's fault arms besides the fault-free one, with
// the rates the repository's fault studies use.
func faultPlans(seed int64) map[string]fault.Plan {
	return map[string]fault.Plan{
		"telemetry-drop": {Seed: seed, Rules: []fault.Rule{{Class: fault.TelemetryDrop, Rate: 0.03, Burst: 30}}},
		"dram-derate":    {Seed: seed, Rules: []fault.Rule{{Class: fault.DRAMDerate, Rate: 0.04, Burst: 25, Factor: 6}}},
	}
}

func setupSweep(e *env, replay bool) (runner, error) {
	t, err := train(e)
	if err != nil {
		return nil, err
	}
	s := &sweep{trained: t, replay: replay}
	plans := faultPlans(e.seed + 7)
	for ti := range t.traces {
		for _, guard := range []bool{false, true} {
			for _, name := range []string{"none", "telemetry-drop", "dram-derate"} {
				a := arm{ti: ti, guard: guard, plan: name}
				if p, ok := plans[name]; ok {
					if a.inj, err = fault.NewInjector(p); err != nil {
						return nil, err
					}
				}
				s.arms = append(s.arms, a)
			}
		}
	}
	d := t.digest()
	if replay {
		t0 := time.Now()
		c := &trace.Corpus{Name: "spec-train", Traces: append(append([]*trace.Trace(nil), t.corpus.Traces...), t.traces...)}
		tel := append(append([]*dataset.TraceTelemetry(nil), t.tel...), t.ref...)
		s.model, err = surrogate.Train(c, tel, t.cfg, surrogate.TrainOptions{Workers: e.workers, MaxTraces: len(c.Traces), Seed: e.seed})
		s.trainS = time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("training the surrogate: %w", err)
		}
		d.s(s.model.Backend)
		d.i(s.model.Samples)
		d.f(s.model.HoldoutMAE, s.model.HoldoutP95)
	}
	s.setupDig = d.sum()
	return s, nil
}

func (s *sweep) setupDigest() string { return s.setupDig }
func (s *sweep) notes() []string {
	if !s.replay {
		return nil
	}
	n := []string{fmt.Sprintf("surrogate backend %s, %d samples, holdout MAE %.4f", s.model.Backend, s.model.Samples, s.model.HoldoutMAE)}
	if s.overBudget != "" {
		n = append(n, s.overBudget)
	}
	return n
}

func (s *sweep) opts(a arm) core.DeployOptions {
	o := core.DeployOptions{Injector: a.inj}
	if a.guard {
		gr := core.DefaultGuardrail()
		o.Guardrail = &gr
	}
	return o
}

func (s *sweep) deploy(a arm) (*core.GuardedDeploymentResult, error) {
	if s.replay {
		return s.model.Replay(s.ctrl, s.traces[a.ti], s.ref[a.ti], s.cfg, s.pm, s.opts(a))
	}
	return core.DeployWithOptions(s.ctrl, s.traces[a.ti], s.ref[a.ti], s.cfg, s.pm, s.opts(a))
}

func (s *sweep) round(tr *tracer, chk *checks) *roundOut {
	out := &roundOut{sim: map[string]float64{}}
	instrs0, ops0 := obs.CounterValue("uarch.instructions"), opsExecuted(s.ctrl)
	reps := 1
	if s.replay {
		reps = replayReps
	}
	n := len(s.arms)
	res := make([]*core.GuardedDeploymentResult, n*reps)
	errs := make([]error, n*reps)
	// One closed-loop step deploys an arm, or replays it reps times.
	out.steps = closedLoop(s.e.workers, n, func(i int) {
		for r := 0; r < reps; r++ {
			res[r*n+i], errs[r*n+i] = s.deploy(s.arms[i])
		}
	})
	layer := "core.deploy"
	if s.replay {
		layer = "surrogate.replay"
	}
	tr.add(layer, sum(out.steps))
	win := s.ctrl.Window()
	k := s.ctrl.Granularity / s.ctrl.Interval
	var repDigests []string
	for r := 0; r < reps; r++ {
		d := newDigest()
		for i := 0; i < n; i++ {
			j := r*n + i
			a := s.arms[i]
			want := s.ref[a.ti].Intervals()/k - 2
			chk.expect(errs[j] == nil && len(res[j].Pred) == want,
				"arm %d (%s, guard %v, %s): %v", i, s.traces[a.ti].Name, a.guard, a.plan, deployErr(res[j], errs[j], want))
			if errs[j] != nil {
				return out
			}
			digestDeploy(d, res[j], win)
			if s.replay {
				out.instrs += int64(res[j].Adaptive.Instrs)
			}
		}
		repDigests = append(repDigests, d.sum())
		if r > 0 {
			chk.expect(repDigests[r] == repDigests[0], "replay repetition %d differs from the first", r)
		}
	}
	s.lastRes = res[:n]
	if !s.replay {
		out.instrs = obs.CounterValue("uarch.instructions") - instrs0
	}
	out.deploys = int64(len(res))
	out.digest = repDigests[0]
	ppw, rsv := deployStats(res[:n], win)
	out.sim["core.ppw_gain_pct"] = ppw
	out.sim["core.rsv_pct"] = rsv
	out.sim["mcu.ops_per_pred"] = float64(s.ctrl.OpsPerPrediction)
	out.sim["mcu.ops_executed"] = float64(opsExecuted(s.ctrl) - ops0)
	return out
}

func deployErr(r *core.GuardedDeploymentResult, err error, want int) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("%d predictions, want %d", len(r.Pred), want)
}

func (s *sweep) layers(tr *tracer, out *roundOut, cnt map[string]int64, wall float64, workers int) map[string]float64 {
	n := &nested{}
	if s.lastRes != nil {
		n = fanOut(workers, len(s.arms), func(i int, part *nested) {
			a := s.arms[i]
			if s.replay {
				subReplay(s.model, s.ctrl, s.traces[a.ti], s.ref[a.ti], s.cfg, s.opts(a), s.lastRes[i], part)
			} else {
				subDeploy(s.ctrl, s.traces[a.ti], s.ref[a.ti], s.cfg, s.opts(a), s.lastRes[i], part)
			}
		})
	}
	m := commonLayers(tr, out, cnt)
	busy := tr.busy["core.deploy"]
	if s.replay {
		n.scale(replayReps) // the sub-pass covers one repetition of the arms
		busy = tr.busy["surrogate.replay"]
		m["surrogate.replay_s"] = busy
		if cnt["core.deployments"] == 0 {
			m["core.deployments"] = float64(out.deploys)
		}
	}
	putNested(m, n)
	m["core.deploy_s"] = busy
	m["core.deploy_self_s"] = math.Max(0, busy-n.total())
	m["obs.self_sum_pct"] = 100 * busy / (wall * float64(workers))
	return m
}

// after spot-checks the surrogate against the exact model on a seeded
// sample of arms, and again through the program's validate-mode oracle
// with every deployment spot-checked. Both must measure the same errors,
// and the oracle must reject the run exactly when their p95 exceeds the
// budget: that rejection is what validate mode promises for an inaccurate
// surrogate. The error itself is reported, as surrogate.err_p95_pct and a
// note, not counted as a failure: the surrogate misses the budget on most
// seeds (see README.md).
func (s *sweep) after(chk *checks) map[string]float64 {
	if !s.replay {
		return nil
	}
	idx := rand.New(rand.NewSource(s.e.seed ^ 0x5370)).Perm(len(s.arms))[:spotChecks]
	oracle := surrogate.NewOracle(s.model, core.SimValidate, surrogate.OracleOptions{SampleRate: 1, Budget: surrogateBudget, Seed: s.e.seed})
	errs := make([]float64, len(idx))
	fail := make([]error, len(idx))
	parallel.ForEach(s.e.workers, len(idx), func(j int) error {
		a := s.arms[idx[j]]
		sur, err := s.model.Replay(s.ctrl, s.traces[a.ti], s.ref[a.ti], s.cfg, s.pm, s.opts(a))
		if err != nil {
			fail[j] = err
			return nil
		}
		exact, err := core.DeployWithOptions(s.ctrl, s.traces[a.ti], s.ref[a.ti], s.cfg, s.pm, s.opts(a))
		if err != nil {
			fail[j] = err
			return nil
		}
		errs[j] = math.Abs(sur.Adaptive.IPC()/exact.Adaptive.IPC() - 1)
		_, fail[j] = oracle.Deploy(s.ctrl, s.traces[a.ti], s.ref[a.ti], s.cfg, s.pm, s.opts(a))
		return nil
	})
	for j, err := range fail {
		chk.expect(err == nil, "spot check %d: %v", j, err)
	}
	// The oracle takes the nearest-rank p95: with 12 samples, the largest.
	sorted := append([]float64(nil), errs...)
	sort.Float64s(sorted)
	rankP95 := sorted[int(math.Ceil(0.95*float64(len(sorted))))-1]
	r := oracle.Report()
	chk.expect(r.Samples == len(idx) && r.P95Err == rankP95 && r.Max == sorted[len(sorted)-1],
		"validate oracle measured %d spot checks, p95 %.6f, max %.6f; the benchmark %d, %.6f, %.6f",
		r.Samples, r.P95Err, r.Max, len(idx), rankP95, sorted[len(sorted)-1])
	rejected := oracle.Check() != nil
	chk.expect(rejected == (rankP95 > surrogateBudget),
		"validate oracle rejected the run: %v, with spot-check p95 %.4f against the %.2f budget", rejected, rankP95, surrogateBudget)
	p95 := quantile(errs, 0.95)
	if rankP95 > surrogateBudget {
		s.overBudget = fmt.Sprintf("surrogate over budget: spot-check p95 relative IPC error %.4f (nearest rank %.4f) exceeds %.2f; validate mode rejects such a run",
			p95, rankP95, surrogateBudget)
	}
	return map[string]float64{
		"surrogate.spot_checks": float64(len(idx)),
		"surrogate.err_p95_pct": p95 * 100,
		"surrogate.train_s":     s.trainS,
	}
}

// ---------------------------------------------------------------------
// fleet-campaign

// fleetCampaign rolls the trained image out across a simulated datacenter
// through the control plane under machine churn, telemetry delay and
// shard stalls, then rolls a miscalibrated image out under the same plan.
type fleetCampaign struct {
	*trained
	img      []byte // the good image
	badImg   []byte
	setupDig string
	reports  [2]*ctrlplane.Report
}

func setupFleet(e *env) (runner, error) {
	t, err := train(e)
	if err != nil {
		return nil, err
	}
	// The good image is the trained controller with thresholds no score
	// reaches, so it never gates: healthy by construction. A controller
	// trained on setup's small corpus can misgate past the canary's gate
	// on some seeds (42% of soak windows on one), and the control plane
	// then rightly halts it. The bad image gates every window: invisible
	// to the CRC envelope, meant to be fatal to the canary ring's health
	// gates (README.md names a seed where it is not). Both still score
	// every soak window with the trained models.
	good, bad := *t.ctrl, *t.ctrl
	good.ThresholdHigh, good.ThresholdLow = 1e9, 1e9
	bad.Name += "-miscalibrated"
	bad.ThresholdHigh, bad.ThresholdLow = -1e9, -1e9
	f := &fleetCampaign{trained: t}
	if f.img, err = sealImage(&good); err != nil {
		return nil, err
	}
	if f.badImg, err = sealImage(&bad); err != nil {
		return nil, err
	}
	d := t.digest()
	d.bytes(f.badImg)
	f.setupDig = d.sum()
	return f, nil
}

func (f *fleetCampaign) setupDigest() string { return f.setupDig }
func (f *fleetCampaign) notes() []string     { return nil }
func (f *fleetCampaign) after(*checks) map[string]float64 {
	return nil
}

// campaignConfig mirrors the repository's churn study: loose health gate,
// CRC-verified flashes under transient failures, quorum 0.7, lease 2, and
// a 5% machine-churn plan with telemetry delays and shard stalls.
func (f *fleetCampaign) campaignConfig(name string) ctrlplane.Config {
	return ctrlplane.Config{
		Name:          name,
		Machines:      fleetMachines,
		Shards:        f.e.workers,
		Workers:       f.e.workers,
		Seed:          f.e.seed,
		FlashPerTick:  fleetMachines / 16,
		Quorum:        0.7,
		LeaseTicks:    2,
		LatencyScope:  foldScope,
		Gate:          fleet.GatePolicy{MaxCRCRejectRate: 1, MaxTripsPerMachine: 3, MaxSLARate: 0.5, MaxMisgateRate: 0.35},
		Guardrail:     core.DefaultGuardrail(),
		Verify:        true,
		CorruptProb:   0.1,
		FlashFailProb: 0.25,
		FlashRetries:  3,
		Faults: fault.Plan{Seed: f.e.seed + 17, Rules: []fault.Rule{
			{Class: fault.MachineChurn, Rate: 0.05, Burst: 3, Span: 12},
			{Class: fault.TelemetryDelay, Rate: 0.05, Burst: 2},
			{Class: fault.ShardStall, Rate: 0.06, Burst: 4, Shards: 8},
		}},
	}
}

// campaign drives one control-plane campaign tick by tick, timing each
// Service.Tick, and returns its report.
func (f *fleetCampaign) campaign(cfg ctrlplane.Config, img []byte, steps *[]float64) (*ctrlplane.Report, error) {
	wl := fleet.Workload{Traces: f.traces, Tel: f.ref, Cfg: f.cfg, PM: f.pm}
	s, err := ctrlplane.New(cfg, img, wl)
	if err != nil {
		return nil, err
	}
	for ticks := 0; !s.Done() && ticks < maxTicks; ticks++ {
		ht := startHostTimer()
		s.Tick()
		*steps = append(*steps, ht.net())
	}
	return s.Run()
}

func (f *fleetCampaign) round(tr *tracer, chk *checks) *roundOut {
	out := &roundOut{sim: map[string]float64{}}
	instrs0, deploys0 := obs.CounterValue("uarch.instructions"), obs.CounterValue("core.deployments")
	goodCfg := f.campaignConfig("cgbench-good")
	badCfg := f.campaignConfig("cgbench-bad")
	badCfg.CorruptProb = 0 // a clean transport isolates the semantic failure
	var flash0, soak0 float64
	var soaks0 int64
	if tr != nil {
		_, flash0 = histSum("fleet.flash.latency")
		soaks0, soak0 = histSum("fleet.soak.duration")
	}
	good, gerr := f.campaign(goodCfg, f.img, &out.steps)
	bad, berr := f.campaign(badCfg, f.badImg, &out.steps)
	if tr != nil {
		_, flash1 := histSum("fleet.flash.latency")
		soaks1, soak1 := histSum("fleet.soak.duration")
		tr.add("fleet.flash", flash1-flash0)
		tr.add("fleet.soak", soak1-soak0)
		tr.add("fleet.soaks", float64(soaks1-soaks0))
	}
	tr.add("ctrlplane.tick", sum(out.steps))
	chk.expect(gerr == nil && good.Completed, "good campaign: %v", campaignState(good, gerr))
	chk.expect(berr == nil && badHalted(bad), "bad campaign: %v", campaignState(bad, berr))
	if gerr != nil || berr != nil {
		return out
	}
	f.reports = [2]*ctrlplane.Report{good, bad}
	d := newDigest()
	for _, r := range f.reports {
		// Shards and Batches echo the ingest knobs, which follow the
		// worker count; every simulated field is independent of them.
		norm := *r
		norm.Shards, norm.Batches = 0, 0
		b, err := json.Marshal(&norm)
		chk.expect(err == nil, "encoding the campaign report: %v", err)
		d.bytes(b)
	}
	out.digest = d.sum()
	out.instrs = obs.CounterValue("uarch.instructions") - instrs0
	out.deploys = obs.CounterValue("core.deployments") - deploys0
	out.sim["ctrlplane.completion_pct"] = 100 * float64(good.Installed) / float64(good.Machines)
	out.sim["ctrlplane.bad_exposed"] = float64(bad.Flashed)
	out.sim["ctrlplane.stale_quarantines"] = float64(good.StaleQuarantines + bad.StaleQuarantines)
	out.sim["ctrlplane.ticks"] = float64(good.Ticks + bad.Ticks)
	out.sim["mcu.ops_per_pred"] = float64(f.ctrl.OpsPerPrediction)
	return out
}

// badHalted is the bad campaign's contract: halted by the canary ring's
// gate and rolled back fleet-wide, with no corrupted payload installed.
func badHalted(r *ctrlplane.Report) bool {
	return !r.Completed && r.HaltedRing == 0 && r.RolledBack && r.Exposed == 0
}

func campaignState(r *ctrlplane.Report, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("completed=%v halted ring %d (%s), %d/%d installed, %d flashed, %d exposed",
		r.Completed, r.HaltedRing, r.HaltReason, r.Installed, r.Machines, r.Flashed, r.Exposed)
}

func (f *fleetCampaign) layers(tr *tracer, out *roundOut, cnt map[string]int64, wall float64, workers int) map[string]float64 {
	m := commonLayers(tr, out, cnt)
	m["ctrlplane.tick_s"] = tr.busy["ctrlplane.tick"]
	m["ctrlplane.machines_per_s"] = 2 * fleetMachines / wall
	flashS, soakS := tr.busy["fleet.flash"], tr.busy["fleet.soak"]
	m["fleet.flash_s"] = flashS
	m["fleet.soak_s"] = soakS
	m["fleet.soaks"] = tr.busy["fleet.soaks"]
	attempts := cnt["fleet.flash.attempts"]
	installs := attempts - cnt["fleet.flash.retries"] - cnt["fleet.crc.rejections"]
	if attempts > 0 {
		m["fleet.install_ratio"] = float64(installs) / float64(attempts)
	}
	var rollbacks int64
	for _, r := range f.reports {
		if r != nil {
			rollbacks += int64(r.RollbackFlashes)
		}
	}
	decodes := installs - rollbacks
	m["core.image_decodes"] = float64(decodes)
	m["core.image_decode_s"] = float64(decodes) * decodeSeconds(f.img)
	self := math.Max(0, m["ctrlplane.tick_s"]*float64(workers)-flashS-soakS)
	m["ctrlplane.self_s"] = self
	m["obs.self_sum_pct"] = 100 * (self + flashS + soakS) / (wall * float64(workers))
	return m
}

// decodeSeconds is the median time of core.LoadController on img over 32
// decodes: flash installs decode the image inside the control plane, so
// their time is estimated from this sub-pass.
func decodeSeconds(img []byte) float64 {
	lat := make([]float64, 32)
	for i := range lat {
		t0 := time.Now()
		core.LoadController(bytes.NewReader(img))
		lat[i] = time.Since(t0).Seconds()
	}
	return median(lat)
}
