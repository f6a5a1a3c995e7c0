package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/experiments"
	"clustergate/internal/obs"
	"clustergate/internal/report"
	"clustergate/internal/surrogate"
)

// benchOpts carries one paperbench invocation's configuration. The two
// unexported hook fields exist for tests: scaleOverride substitutes an
// arbitrary Scale for the named one, and failAfter > 0 makes run fail with
// errInjectedCrash before starting experiment failAfter+1, simulating a
// mid-sweep kill for checkpoint-resume tests.
type benchOpts struct {
	scaleName     string
	cacheDir      string
	seed          int64
	exps          string
	svgDir        string
	quiet         bool
	workers       int
	manifestPath  string
	resultsPath   string
	cpuProfile    string
	memProfile    string
	checkpointDir string
	benchDir      string
	eventsPath    string
	tracePath     string
	debugAddr     string
	simMode       string
	args          []string

	scaleOverride *experiments.Scale
	failAfter     int
}

// errInjectedCrash is the failure the failAfter test hook injects.
var errInjectedCrash = errors.New("injected crash (test hook)")

// experiment is one registry entry. Its run function writes the
// experiment's stdout section to w and returns the metrics recorded in the
// results file plus, for a measured study, the bench document -benchdir
// writes as BENCH_<name>.json.
type experiment struct {
	name string
	// optIn keeps the experiment out of -exp all; it runs only when named.
	optIn bool
	// live experiments never replay from a checkpoint: they exist to
	// measure this run's wall clock.
	live bool
	// feeds names the experiments that read this one's in-process state.
	// It runs whenever one of them is selected, and replays from a
	// checkpoint only when every selected one is checkpointed too.
	feeds []string
	run   func(s *session, w io.Writer) (map[string]float64, *obs.Bench, error)
}

// registry is every experiment paperbench knows, in run order.
var registry = []experiment{
	{name: "corpus", run: (*session).corpus},
	{name: "table3", run: (*session).table3},
	{name: "table4", run: (*session).table4},
	{name: "fig4", run: (*session).fig4},
	{name: "fig5", run: (*session).fig5},
	{name: "fig6", run: (*session).fig6},
	{name: "fig7", run: (*session).fig7},
	{name: "fig8-deploy", feeds: []string{"fig8", "fig9", "table6"}, run: (*session).fig8Deploy},
	{name: "fig8", run: (*session).fig8},
	{name: "fig9", run: (*session).fig9},
	{name: "fig10", run: (*session).fig10},
	{name: "table5", run: (*session).table5},
	{name: "table6", run: (*session).table6},
	{name: "granularity", run: (*session).granularity},
	{name: "guardrail", run: (*session).guardrail},
	{name: "faults", run: (*session).faults},
	{name: "guardrail-sweep", run: (*session).guardrailSweep},
	{name: "fleet-rollout", run: (*session).fleetRollout},
	{name: "ctrlplane-soak", run: (*session).ctrlplaneSoak},
	{name: "ctrlplane-churn", run: (*session).ctrlplaneChurn},
	{name: "uarch", run: (*session).uarch},
	{name: "dvfs", run: (*session).dvfs},
	{name: "ablations", run: (*session).ablations},
	// surrogate-bench's stdout is deterministic, but it exists to measure
	// wall clock, which belongs in its bench document.
	{name: "surrogate-bench", optIn: true, live: true, run: (*session).surrogateBench},
}

// lookup returns the registry entry with the given name, or nil.
func lookup(name string) *experiment {
	for i := range registry {
		if registry[i].name == name {
			return &registry[i]
		}
	}
	return nil
}

// experimentList names every valid -exp value, marking opt-in entries.
func experimentList() string {
	names := []string{"all"}
	for _, e := range registry {
		if e.optIn {
			names = append(names, e.name+" (not in all)")
		} else {
			names = append(names, e.name)
		}
	}
	return strings.Join(names, ", ")
}

// selectExperiments resolves an -exp list against the registry: "all"
// selects every entry that is not opt-in, an entry that feeds others is
// selected with any of them, and an unknown name is an error.
func selectExperiments(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name != "all" && lookup(name) == nil {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, experimentList())
		}
		want[name] = true
	}
	picked := func(e *experiment) bool { return want[e.name] || want["all"] && !e.optIn }
	sel := map[string]bool{}
	for i := range registry {
		e := &registry[i]
		sel[e.name] = picked(e)
		for _, f := range e.feeds {
			sel[e.name] = sel[e.name] || picked(lookup(f))
		}
	}
	return sel, nil
}

// session is what the registered experiments share within one run.
type session struct {
	opts     benchOpts
	env      *experiments.Env
	stderr   io.Writer
	ckpt     *experiments.Checkpoint
	results  *obs.Results
	surModel *surrogate.Model
	// fig8Rows is fig8-deploy's evaluation, read by fig8, fig9 and table6.
	fig8Rows []experiments.Fig8Row
}

// run executes the selected experiments, writing experiment output to
// stdout and progress to stderr. Experiment output is buffered per
// experiment and flushed only on completion, so a crash never emits a
// partial experiment; with checkpointing enabled each completed buffer is
// also persisted atomically, which is what makes a resumed run's stdout
// byte-identical to an uninterrupted one.
func run(opts benchOpts, stdout, stderr io.Writer) error {
	var scale experiments.Scale
	switch {
	case opts.scaleOverride != nil:
		scale = *opts.scaleOverride
	case opts.scaleName == "quick":
		scale = experiments.QuickScale()
	case opts.scaleName == "default":
		scale = experiments.DefaultScale()
	case opts.scaleName == "full":
		scale = experiments.FullScale()
	default:
		return fmt.Errorf("unknown scale %q", opts.scaleName)
	}
	scale.Workers = opts.workers
	selected, err := selectExperiments(opts.exps)
	if err != nil {
		return err
	}
	simMode := core.SimMode(opts.simMode)
	if opts.simMode == "" {
		simMode = core.SimExact
	}
	switch simMode {
	case core.SimExact, core.SimSurrogate, core.SimValidate:
	default:
		return fmt.Errorf("unknown -sim mode %q (want exact, surrogate, or validate)", opts.simMode)
	}

	stopProfiles, err := obs.StartProfiles(opts.cpuProfile, opts.memProfile)
	if err != nil {
		return err
	}
	run := obs.NewRun(obs.Info{
		Tool: "paperbench", Args: opts.args,
		Seed: opts.seed, Scale: opts.scaleName, Workers: opts.workers,
	})
	obs.SetCurrent(run)
	s := &session{opts: opts, stderr: stderr, results: obs.NewResults("paperbench")}
	if opts.eventsPath != "" {
		obs.SetEventLog(obs.NewEventLog())
		defer obs.SetEventLog(nil)
	}
	if opts.debugAddr != "" {
		dbg, err := obs.StartDebugServer(opts.debugAddr)
		if err != nil {
			return err
		}
		if !opts.quiet {
			fmt.Fprintf(stderr, "# debug endpoint: http://%s (/metrics /healthz /debug/pprof/)\n", dbg.Addr())
		}
		defer dbg.Close()
	}

	if opts.checkpointDir != "" {
		s.ckpt, err = experiments.OpenCheckpoint(opts.checkpointDir, opts.seed, opts.scaleName)
		if err != nil {
			return err
		}
		// Not a progress line: a discarded store changes what this run
		// recomputes, so it prints even under -q.
		if why := s.ckpt.Ignored(); why != "" {
			fmt.Fprintln(stderr, "# checkpoint:", why)
		}
	}

	start := time.Now()
	var logw io.Writer
	if !opts.quiet {
		logw = stderr
	}

	// A resumed run checks the previous run's telemetry-cache manifest: if
	// every recorded cache file survives, the env build below replays
	// entirely from disk and the resume is fully offline. The report goes to
	// stderr only — stdout must stay byte-identical to an uninterrupted run.
	if prev, err := s.ckpt.CacheManifest(); err != nil {
		return err
	} else if len(prev) > 0 && !opts.quiet {
		missing := 0
		for _, r := range prev {
			if _, err := os.Stat(r.Path); err != nil {
				missing++
			}
		}
		if missing == 0 {
			fmt.Fprintf(stderr, "# cache manifest: all %d telemetry cache files present; resuming offline\n", len(prev))
		} else {
			fmt.Fprintf(stderr, "# cache manifest: %d of %d telemetry cache files missing; resume will re-simulate\n", missing, len(prev))
		}
	}

	s.env, err = experiments.NewEnvLogged(scale, opts.cacheDir, opts.seed, logw)
	if err != nil {
		return err
	}
	if err := s.ckpt.SaveCacheManifest(dataset.RecordedCacheFiles()); err != nil {
		return err
	}

	// Simulation-oracle selection (-sim). The env above is always built
	// exactly — the surrogate trains on that exact telemetry — and only
	// deployments made after this point route through the oracle.
	var surOracle *surrogate.Oracle
	if simMode != core.SimExact {
		m, err := s.surrogate()
		if err != nil {
			return err
		}
		surOracle = surrogate.NewOracle(m, simMode, surrogate.OracleOptions{Seed: opts.seed})
		s.env.Sim = surOracle
	}

	completed := 0
	for i := range registry {
		e := &registry[i]
		if !selected[e.name] {
			continue
		}
		if opts.failAfter > 0 && completed >= opts.failAfter {
			return errInjectedCrash
		}
		// A feeding experiment's state lives only in process memory, so it
		// replays only when every selected consumer replays too.
		var feeds []string
		for _, f := range e.feeds {
			if selected[f] {
				feeds = append(feeds, f)
			}
		}
		if err := s.runExp(e, e.live || len(e.feeds) > 0 && !s.ckpt.Has(feeds...), stdout); err != nil {
			return err
		}
		completed++
	}

	// In validate mode the run fails loudly when the surrogate drifted past
	// its error budget; the spot-check distribution goes to stderr either
	// way so CI logs always show how close the margin was.
	if surOracle != nil && surOracle.Mode() == core.SimValidate {
		rep := surOracle.Report()
		fmt.Fprintf(stderr, "# surrogate validate: %d spot checks, rel IPC err p50 %.4f p95 %.4f max %.4f (budget %.2f)\n",
			rep.Samples, rep.P50, rep.P95Err, rep.Max, rep.Budget)
		if err := surOracle.Check(); err != nil {
			return err
		}
	}

	if !opts.quiet {
		cs := dataset.ReadCacheStats()
		fmt.Fprintf(stderr, "# cache: %d hits, %d misses (%d discarded), %d collapses (%.1f MB read, %.1f MB written)\n",
			cs.Hits, cs.Misses, cs.Discarded, cs.Collapses,
			float64(cs.BytesRead)/1e6, float64(cs.BytesWritten)/1e6)
		fmt.Fprintf(stderr, "# total %.1fs\n", time.Since(start).Seconds())
	}

	manifest := run.Finish()
	if opts.manifestPath != "" {
		if err := manifest.WriteFile(opts.manifestPath); err != nil {
			return err
		}
	}
	if opts.resultsPath != "" {
		if err := s.results.WriteFile(opts.resultsPath); err != nil {
			return err
		}
	}
	if opts.tracePath != "" {
		if err := manifest.WriteChromeTrace(opts.tracePath); err != nil {
			return err
		}
	}
	if opts.eventsPath != "" {
		if err := obs.CurrentEventLog().WriteFile(opts.eventsPath); err != nil {
			return err
		}
	}
	return stopProfiles()
}

// runExp runs one experiment with a span, a timed results entry, and
// crash-safe buffering: its output reaches stdout — and the checkpoint
// store — only after it succeeds, followed by a blank line when it printed
// anything. A checkpointed experiment replays its stored output and bench
// bytes instead of running, unless force is set. It is the single
// bookkeeping site: replayed and live experiments are recorded once each,
// identically, so a resumed run's results file counts every experiment
// exactly once and its bench files match the run that computed them.
func (s *session) runExp(e *experiment, force bool, stdout io.Writer) error {
	var entry experiments.CheckpointEntry
	replayed := false
	if !force {
		entry, replayed = s.ckpt.Load(e.name)
	}
	if replayed {
		if _, err := io.WriteString(stdout, entry.Output); err != nil {
			return err
		}
	} else {
		sp := obs.Start("exp/" + e.name)
		t0 := time.Now()
		var buf bytes.Buffer
		metrics, bench, err := e.run(s, &buf)
		sp.End()
		if err != nil {
			return err
		}
		if buf.Len() > 0 {
			buf.WriteByte('\n')
		}
		entry = experiments.CheckpointEntry{
			Name: e.name, Output: buf.String(), Seconds: time.Since(t0).Seconds(), Metrics: metrics,
		}
		if bench != nil {
			b, err := bench.Marshal()
			if err != nil {
				return err
			}
			entry.Bench = string(b)
		}
		if _, err := stdout.Write(buf.Bytes()); err != nil {
			return err
		}
		if err := s.ckpt.Save(entry); err != nil {
			return err
		}
	}
	if s.opts.benchDir != "" && entry.Bench != "" {
		if err := os.MkdirAll(s.opts.benchDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(s.opts.benchDir, "BENCH_"+e.name+".json")
		if err := os.WriteFile(path, []byte(entry.Bench), 0o644); err != nil {
			return err
		}
	}
	s.results.Add(e.name, entry.Seconds, entry.Metrics)
	return nil
}

// surrogate trains the run's surrogate model on the HDTR telemetry on
// first use and returns it.
func (s *session) surrogate() (*surrogate.Model, error) {
	if s.surModel != nil {
		return s.surModel, nil
	}
	t0 := time.Now()
	m, err := surrogate.Train(s.env.HDTR, s.env.HDTRTel, s.env.Cfg, surrogate.TrainOptions{
		Workers: s.env.Scale.Workers,
		Seed:    s.opts.seed,
	})
	if err != nil {
		return nil, fmt.Errorf("training surrogate: %w", err)
	}
	if !s.opts.quiet {
		fmt.Fprintf(s.stderr, "# surrogate: %s backend, %d samples, holdout MAE %.4f p95 %.4f in %.1fs\n",
			m.Backend, m.Samples, m.HoldoutMAE, m.HoldoutP95, time.Since(t0).Seconds())
	}
	s.surModel = m
	return m, nil
}

func (s *session) corpus(w io.Writer) (map[string]float64, *obs.Bench, error) {
	experiments.PrintCorpus(w, s.env)
	return nil, nil, nil
}

func (s *session) table3(w io.Writer) (map[string]float64, *obs.Bench, error) {
	budget := experiments.Table3Budget(s.env.Spec)
	models, err := experiments.Table3Models(s.env)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintTable3(w, budget, models)
	m := map[string]float64{}
	for i, r := range models {
		m[fmt.Sprintf("pgos.%02d", i)] = r.PGOS.Mean
		m[fmt.Sprintf("ops.%02d", i)] = float64(r.Cost.Ops)
	}
	return m, nil, nil
}

func (s *session) table4(w io.Writer) (map[string]float64, *obs.Bench, error) {
	experiments.PrintTable4(w, s.env)
	return nil, nil, nil
}

func (s *session) fig4(w io.Writer) (map[string]float64, *obs.Bench, error) {
	pts, err := experiments.Fig4Diversity(s.env)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintFig4(w, pts)
	m := map[string]float64{}
	for _, p := range pts {
		m[fmt.Sprintf("pgos.apps%d", p.TuningApps)] = p.PGOS.Mean
		m[fmt.Sprintf("rsv.apps%d", p.TuningApps)] = p.RSV.Mean
	}
	return m, nil, nil
}

func (s *session) fig5(w io.Writer) (map[string]float64, *obs.Bench, error) {
	pts, err := experiments.Fig5Counters(s.env)
	if err != nil {
		return nil, nil, err
	}
	expert, err := experiments.Fig5Expert(s.env)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintFig5(w, pts, expert)
	m := map[string]float64{
		"pgos.expert": expert.PGOS.Mean,
		"rsv.expert":  expert.RSV.Mean,
	}
	for _, p := range pts {
		m[fmt.Sprintf("pgos.r%d", p.Counters)] = p.PGOS.Mean
		m[fmt.Sprintf("rsv.r%d", p.Counters)] = p.RSV.Mean
	}
	return m, nil, nil
}

func (s *session) fig6(w io.Writer) (map[string]float64, *obs.Bench, error) {
	pts, err := experiments.Fig6Screen(s.env)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintFig6(w, "Figure 6: MLP hyperparameter screen (* fits 50k budget)", pts)
	best := experiments.BestByScreen(pts)
	fmt.Fprintf(w, "  selected topology: %v\n", best.Hidden)
	rfs, err := experiments.Fig6RFScreen(s.env)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintFig6(w, "Figure 6 (RF analogue): forest screen (* fits 40k budget)", rfs)
	return map[string]float64{
		"pgos.best": best.PGOS.Mean,
		"rsv.best":  best.RSV.Mean,
		"ops.best":  float64(best.Ops),
	}, nil, nil
}

func (s *session) fig7(w io.Writer) (map[string]float64, *obs.Bench, error) {
	rows, mean := experiments.Fig7Oracle(s.env)
	experiments.PrintFig7(w, rows, mean)
	if s.opts.svgDir != "" {
		if err := writeFig7SVG(s.opts.svgDir, rows); err != nil {
			return nil, nil, err
		}
	}
	return map[string]float64{"mean_residency": mean}, nil, nil
}

func (s *session) fig8Deploy(w io.Writer) (map[string]float64, *obs.Bench, error) {
	gs, err := experiments.BuildFig8Controllers(s.env)
	if err != nil {
		return nil, nil, err
	}
	s.fig8Rows, err = experiments.Fig8Evaluate(s.env, gs)
	if err != nil {
		return nil, nil, err
	}
	m := map[string]float64{}
	for _, r := range s.fig8Rows {
		m["ppw."+r.Model] = r.Summary.MeanBenchmarkPPWGain()
		m["rsv."+r.Model] = r.Summary.Overall.RSV
		m["pgos."+r.Model] = r.Summary.Overall.Confusion.PGOS()
		m["residency."+r.Model] = r.Summary.Overall.Residency
	}
	return m, nil, nil
}

func (s *session) fig8(w io.Writer) (map[string]float64, *obs.Bench, error) {
	experiments.PrintFig8(w, s.fig8Rows)
	if s.opts.svgDir != "" {
		if err := writeFig8SVG(s.opts.svgDir, s.fig8Rows); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, nil
}

// fig8Row returns fig8-deploy's row for the named model, or nil.
func (s *session) fig8Row(model string) *experiments.Fig8Row {
	for i := range s.fig8Rows {
		if s.fig8Rows[i].Model == model {
			return &s.fig8Rows[i]
		}
	}
	return nil
}

func (s *session) fig9(w io.Writer) (map[string]float64, *obs.Bench, error) {
	if charstar, bestRF := s.fig8Row("charstar"), s.fig8Row("best-rf"); charstar != nil && bestRF != nil {
		experiments.PrintFig9(w, experiments.Fig9PerBenchmark(charstar.Summary, bestRF.Summary))
	}
	return nil, nil, nil
}

func (s *session) fig10(w io.Writer) (map[string]float64, *obs.Bench, error) {
	steps, err := experiments.Fig10Ablation(s.env)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintFig10(w, steps)
	m := map[string]float64{}
	for i, st := range steps {
		m[fmt.Sprintf("rsv.step%d", i)] = st.RSV
		m[fmt.Sprintf("ppw.step%d", i)] = st.PPW
	}
	return m, nil, nil
}

func (s *session) table5(w io.Writer) (map[string]float64, *obs.Bench, error) {
	rows, err := experiments.Table5SLARetune(s.env)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintTable5(w, rows)
	m := map[string]float64{}
	for _, r := range rows {
		key := fmt.Sprintf("psla%02.0f", 100*r.PSLA)
		m["ppw."+key] = r.PPWGain
		m["rsv."+key] = r.RSV
		m["relperf."+key] = r.RelPerf
	}
	return m, nil, nil
}

func (s *session) table6(w io.Writer) (map[string]float64, *obs.Bench, error) {
	bestRF := s.fig8Row("best-rf")
	if bestRF == nil {
		return nil, nil, fmt.Errorf("table6 requires fig8's best-rf run")
	}
	general, err := experiments.BuildGeneralBestRF(s.env)
	if err != nil {
		return nil, nil, err
	}
	rows, err := experiments.Table6AppSpecific(s.env, general, bestRF.Summary)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintTable6(w, rows)
	m := map[string]float64{}
	for _, r := range rows {
		m["delta."+r.Benchmark] = r.Delta()
	}
	return m, nil, nil
}

func (s *session) granularity(w io.Writer) (map[string]float64, *obs.Bench, error) {
	pts, err := experiments.GranularitySweep(s.env)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintGranularity(w, pts)
	m := map[string]float64{}
	for _, p := range pts {
		key := fmt.Sprintf("g%dk", p.Granularity/1000)
		m["ppw."+key] = p.PPW
		m["rsv."+key] = p.RSV
	}
	return m, nil, nil
}

func (s *session) guardrail(w io.Writer) (map[string]float64, *obs.Bench, error) {
	g, err := experiments.BuildGeneralBestRF(s.env)
	if err != nil {
		return nil, nil, err
	}
	r, err := experiments.GuardrailStudy(s.env, g)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintGuardrail(w, r)
	return map[string]float64{
		"ppw.bare":      r.BarePPW,
		"ppw.guarded":   r.GuardedPPW,
		"rsv.bare":      r.BareRSV,
		"worst.bare":    r.BareWorst,
		"worst.guarded": r.GuardedWorst,
		"trips":         float64(r.Trips),
	}, nil, nil
}

func (s *session) faults(w io.Writer) (map[string]float64, *obs.Bench, error) {
	g, err := experiments.BuildGeneralBestRF(s.env)
	if err != nil {
		return nil, nil, err
	}
	r, err := experiments.FaultStudy(s.env, g)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintFaultStudy(w, r)
	m := map[string]float64{"watchdog.ops": float64(r.Watchdog.Ops)}
	for _, c := range r.Classes {
		key := string(c.Class)
		m["rsv_off."+key] = c.RSVOff
		m["rsv_on."+key] = c.RSVOn
		m["trips."+key] = float64(c.Trips)
		m["injected."+key] = float64(c.Injected)
	}
	return m, nil, nil
}

func (s *session) guardrailSweep(w io.Writer) (map[string]float64, *obs.Bench, error) {
	g, err := experiments.BuildGuardedBestRF(s.env)
	if err != nil {
		return nil, nil, err
	}
	r, err := experiments.GuardrailSweep(s.env, g)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintGuardrailSweep(w, r)
	m := map[string]float64{
		"watchdog.ops":    float64(r.WatchdogOps),
		"detector.flips":  float64(r.DetectorFlips),
		"detector.caught": float64(r.DetectorCaught),
	}
	for _, row := range r.Rows {
		m["exposure."+row.Key] = row.MeanExposure
		m["ppw."+row.Key] = row.PPW
		m["trips."+row.Key] = float64(row.Trips)
	}
	if r.Best != "" {
		m["dominates"] = 1
	}
	return m, detailDoc("guardrail-sweep", "watchdog.ops", r.WatchdogOps, r), nil
}

func (s *session) fleetRollout(w io.Writer) (map[string]float64, *obs.Bench, error) {
	g, err := experiments.BuildGeneralBestRF(s.env)
	if err != nil {
		return nil, nil, err
	}
	r, err := experiments.FleetRollout(s.env, g)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintFleetRollout(w, r)
	m := map[string]float64{"machines": float64(r.Machines)}
	for _, row := range r.Rows {
		m["exposed."+row.Key] = float64(row.Exposed)
		m["installed."+row.Key] = float64(row.Installed)
		m["time."+row.Key] = float64(row.TimeSteps)
		m["bad_flashed."+row.Key] = float64(row.BadFlashed)
		if row.BadCaught {
			m["bad_caught."+row.Key] = 1
		}
	}
	return m, detailDoc("fleet-rollout", "machines", r.Machines, r), nil
}

func (s *session) ctrlplaneSoak(w io.Writer) (map[string]float64, *obs.Bench, error) {
	g, err := experiments.BuildGeneralBestRF(s.env)
	if err != nil {
		return nil, nil, err
	}
	r, err := experiments.CtrlplaneSoak(s.env, g, s.opts.checkpointDir)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintCtrlplane(w, r)
	m := map[string]float64{
		"machines":       float64(r.Machines),
		"good.ticks":     float64(r.Good.Ticks),
		"good.flashed":   float64(r.Good.Flashed),
		"good.exposed":   float64(r.Good.Exposed),
		"good.decisions": float64(r.Good.Decisions),
		"bad.flashed":    float64(r.Bad.Flashed),
	}
	if r.Good.Completed {
		m["good.completed"] = 1
	}
	if r.Bad.RolledBack {
		m["bad.caught"] = 1
	}
	return m, soakDoc(r), nil
}

func (s *session) ctrlplaneChurn(w io.Writer) (map[string]float64, *obs.Bench, error) {
	g, err := experiments.BuildGeneralBestRF(s.env)
	if err != nil {
		return nil, nil, err
	}
	r, err := experiments.CtrlplaneChurn(s.env, g, s.opts.checkpointDir)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintCtrlplaneChurn(w, r)
	m := map[string]float64{"machines": float64(r.Machines)}
	for i := range r.Arms {
		a := &r.Arms[i]
		m["completion."+a.Key] = a.CompletionRate()
		m["stale."+a.Key] = float64(a.Report.StaleQuarantines)
		m["catchup."+a.Key] = float64(a.Report.CatchUpFlashes)
	}
	// The campaign verdicts are read back from the bench document, which
	// defines them.
	b := churnDoc(r)
	m["good.completed"] = *b.Metrics["good_completed"].Value
	if *b.Metrics["bad_caught"].Value == 1 {
		m["bad.caught"] = 1
	}
	return m, b, nil
}

func (s *session) uarch(w io.Writer) (map[string]float64, *obs.Bench, error) {
	rows, err := experiments.UarchAblations(s.env, 2)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintUarchAblations(w, rows)
	return nil, nil, nil
}

func (s *session) dvfs(w io.Writer) (map[string]float64, *obs.Bench, error) {
	rows, err := experiments.DVFSSweep(5)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintDVFS(w, rows)
	return nil, nil, nil
}

func (s *session) ablations(w io.Writer) (map[string]float64, *obs.Bench, error) {
	rows, err := experiments.Ablations(s.env)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintAblations(w, rows)

	pred, react, err := experiments.ReactiveAblation(s.env)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "  predict t+2: PGOS %.1f%% RSV %.2f%% | reactive t: PGOS %.1f%% RSV %.2f%%\n",
		100*pred.PGOS.Mean, 100*pred.RSV.Mean, 100*react.PGOS.Mean, 100*react.RSV.Mean)

	norm, raw, err := experiments.NormalizationAblation(s.env)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "  normalized: PGOS %.1f%% RSV %.2f%% | raw counts: PGOS %.1f%% RSV %.2f%%\n",
		100*norm.PGOS.Mean, 100*norm.RSV.Mean, 100*raw.PGOS.Mean, 100*raw.RSV.Mean)
	m := map[string]float64{
		"pgos.predict":    pred.PGOS.Mean,
		"rsv.predict":     pred.RSV.Mean,
		"pgos.reactive":   react.PGOS.Mean,
		"rsv.reactive":    react.RSV.Mean,
		"pgos.normalized": norm.PGOS.Mean,
		"pgos.raw":        raw.PGOS.Mean,
	}
	for _, r := range rows {
		m["ppw."+r.Label] = r.PPWGain
		m["rsv."+r.Label] = r.RSV
	}
	return m, nil, nil
}

func (s *session) surrogateBench(w io.Writer) (map[string]float64, *obs.Bench, error) {
	model, err := s.surrogate()
	if err != nil {
		return nil, nil, err
	}
	g, err := experiments.BuildGeneralBestRF(s.env)
	if err != nil {
		return nil, nil, err
	}
	r, err := experiments.SurrogateBench(s.env, model, g, 0.05)
	if err != nil {
		return nil, nil, err
	}
	experiments.PrintSurrogateBench(w, r)
	return map[string]float64{
		"err.p50":    r.ErrP50,
		"err.p95":    r.ErrP95,
		"err.max":    r.ErrMax,
		"pred.agree": r.PredAgree,
	}, surrogateDoc(r), nil
}

// The bench documents. Each builder declares every metric's gate and
// tolerance class from a study's result alone, so the declarations can be
// pinned by a test without running the study.

// detailDoc is the bench document of a study whose outcomes are gated in
// the results file: one count that pins the study's configuration, plus
// its full result table as the ungated detail.
func detailDoc(name, key string, count int, detail any) *obs.Bench {
	b := obs.NewBench(name, detail)
	b.Set(key, float64(count), "", obs.GateExact, obs.TolCounter)
	return b
}

func soakDoc(r *experiments.CtrlplaneResult) *obs.Bench {
	// Throughput and latency are wall clock: they appear here, never on
	// stdout.
	b := obs.NewBench("ctrlplane-soak", nil)
	b.Set("machines", float64(r.Machines), "", obs.GateExact, obs.TolCounter)
	b.Set("shards", float64(r.Shards), "", obs.GateExact, obs.TolCounter)
	b.Set("ticks", float64(r.Good.Ticks), "", obs.GateExact, obs.TolCounter)
	b.Set("intervals", float64(r.Good.Intervals), "", obs.GateExact, obs.TolCounter)
	b.Set("decisions", float64(r.Good.Decisions), "", obs.GateExact, obs.TolCounter)
	b.Set("machines_per_sec", r.MachinesPerSec, "1/s", obs.GateHigherBetter, obs.TolTiming)
	b.Set("decisions_per_sec", r.DecisionsPerSec, "1/s", obs.GateHigherBetter, obs.TolTiming)
	b.Set("p95_decision_ms", r.P95DecisionMS, "ms", obs.GateLowerBetter, obs.TolTiming)
	b.Set("wall_seconds", r.WallSeconds, "s", obs.GateWarn, obs.TolTiming)
	b.Verdict("completed", r.Good.Completed)
	b.Verdict("bad_caught", r.Bad.RolledBack)
	return b
}

func churnDoc(r *experiments.CtrlplaneChurnResult) *obs.Bench {
	b := obs.NewBench("ctrlplane-churn", nil)
	b.Set("machines", float64(r.Machines), "", obs.GateExact, obs.TolCounter)
	goodCompleted := true
	for i := range r.Arms {
		a := &r.Arms[i]
		goodCompleted = goodCompleted && a.Report.Completed
		k := a.Key + "."
		b.Set(k+"churn_rate", a.ChurnRate, "", obs.GateExact, obs.TolMetric)
		b.Set(k+"lease_ticks", float64(a.LeaseTicks), "", obs.GateExact, obs.TolMetric)
		b.Verdict(k+"completed", a.Report.Completed)
		// Completion is a deterministic campaign outcome, not wall clock:
		// held at the metric tolerance however coarse -tol is.
		b.Set(k+"completion_rate", a.CompletionRate(), obs.UnitFraction, obs.GateHigherBetter, obs.TolMetric)
		b.Set(k+"leaves", float64(a.Report.Leaves), "", obs.GateExact, obs.TolCounter)
		b.Set(k+"joins", float64(a.Report.Joins), "", obs.GateExact, obs.TolCounter)
		b.Set(k+"catch_up_flashes", float64(a.Report.CatchUpFlashes), "", obs.GateExact, obs.TolCounter)
		b.Set(k+"stale_quarantines", float64(a.Report.StaleQuarantines), "", obs.GateExact, obs.TolCounter)
		b.Set(k+"gate_deferrals", float64(a.Report.GateDeferrals), "", obs.GateExact, obs.TolCounter)
	}
	b.Verdict("good_completed", goodCompleted)
	b.Verdict("bad_caught", r.Bad.RolledBack && r.Bad.HaltedRing == 0)
	b.Set("p95_decision_ms", r.P95DecisionMS, "ms", obs.GateLowerBetter, obs.TolTiming)
	b.Set("wall_seconds", r.WallSeconds, "s", obs.GateWarn, obs.TolTiming)
	return b
}

func surrogateDoc(r *experiments.SurrogateBenchResult) *obs.Bench {
	b := obs.NewBench("surrogate-bench", map[string]string{"backend": r.TrainBackend})
	b.Set("traces", float64(r.Traces), "", obs.GateExact, obs.TolCounter)
	b.Set("deploys", float64(r.Deploys), "", obs.GateExact, obs.TolCounter)
	b.Set("samples", float64(r.TrainSamples), "", obs.GateExact, obs.TolCounter)
	b.Set("exact_ns_per_deploy", r.ExactNSPerDeploy, "ns", obs.GateLowerBetter, obs.TolTiming)
	b.Set("surrogate_ns_per_deploy", r.ReplayNSPerDeploy, "ns", obs.GateLowerBetter, obs.TolTiming)
	b.Set("speedup", r.Speedup, "x", obs.GateWarn, obs.TolTiming)
	// The error percentiles are one-sided accuracy gates: error may not
	// grow past the timing tolerance, and shrinking never flags.
	b.Set("err_p50", r.ErrP50, "", obs.GateLowerBetter, obs.TolTiming)
	b.Set("err_p95", r.ErrP95, "", obs.GateLowerBetter, obs.TolTiming)
	b.Set("err_max", r.ErrMax, "", obs.GateLowerBetter, obs.TolTiming)
	b.Set("pred_agreement", r.PredAgree, obs.UnitFraction, obs.GateWarn, obs.TolMetric)
	b.Set("budget", r.Budget, "", obs.GateExact, obs.TolMetric)
	b.Verdict("within_budget", r.WithinBudget)
	return b
}

// writeFig7SVG renders the residency profile as a bar chart.
func writeFig7SVG(dir string, rows []experiments.Fig7Row) error {
	labels := make([]string, len(rows))
	values := make([]float64, len(rows))
	for i, r := range rows {
		labels[i] = r.Benchmark
		values[i] = r.Residency
	}
	c := &report.BarChart{
		Title:  "Figure 7: ideal low-power residency (P_SLA = 0.90)",
		Labels: labels, Values: values, Percent: true,
	}
	return writeSVG(dir, "fig7-residency.svg", c.WriteSVG)
}

// writeFig8SVG renders the model comparison as a PPW-vs-RSV scatter.
func writeFig8SVG(dir string, rows []experiments.Fig8Row) error {
	c := &report.ScatterChart{
		Title:  "Figure 8: PPW gain vs SLA violations",
		XLabel: "RSV (%)", YLabel: "PPW gain (%)",
	}
	for _, r := range rows {
		c.Points = append(c.Points, report.ScatterPoint{
			Label: r.Model,
			X:     100 * r.Summary.Overall.RSV,
			Y:     100 * r.Summary.MeanBenchmarkPPWGain(),
		})
	}
	return writeSVG(dir, "fig8-models.svg", c.WriteSVG)
}

func writeSVG(dir, name string, render func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
