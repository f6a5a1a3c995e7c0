// Command cgbench is clustergate's end-to-end benchmark. It drives the
// four layers of the system — the synthetic workload generator, the
// cycle-level dual-cluster core, the ML adaptation firmware and the fleet
// control plane — from outside, through their public functions, checks
// every output, and prints one JSON result as the last line of stdout:
//
//	bash cgbench/run.sh --workload deploy-sweep --seed 1 --seconds 20 --trace 0
//
// Inputs are generated from --seed. A run sets the workload up several
// times (setup_s is the median), then repeats fixed-size rounds in closed
// loop until --seconds have passed. With --trace 0 it prints the
// end-to-end metrics of BENCHMARK.json, measured untraced; with --trace 1
// it alternates untraced and traced rounds and prints the per-layer
// metrics. README.md documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"clustergate/internal/obs"
)

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workers sizes every worker pool and Workers/Shards knob; the
	// command line always uses nproc, tests also run at 1.
	workers int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{workers: runtime.NumCPU()}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 prints per-layer metrics from traced rounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "cgbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = *traceFlag == 1
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(stderr, "cgbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "cgbench: --seconds must be positive")
		return 2
	}
	rep, err := execute(o)
	if err != nil {
		fmt.Fprintln(stderr, "cgbench:", err)
		return 1
	}
	for _, line := range rep.notes {
		fmt.Fprintln(stdout, "#", line)
	}
	names := make([]string, 0, len(rep.res.Metrics))
	for n := range rep.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.res.Metrics[n]
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(rep.res)
	if err != nil {
		fmt.Fprintln(stderr, "cgbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// report is one run's outcome: the contract result plus human-readable
// notes (host stamp, digests, simulated statistics, sample counts).
type report struct {
	res   result
	notes []string
	// setupDigest and roundDigest hash every simulated statistic a setup
	// and a round produce; a pure speed-up leaves both unchanged.
	setupDigest, roundDigest string
	sim                      map[string]float64
}

// Round-count floors: an untraced run measures at least two rounds, a
// traced run at least one of each kind (firmware-build rounds take
// seconds; the other workloads fit many rounds into --seconds).
const (
	setups          = 3
	minPlainRounds  = 2
	minTracedRounds = 1
)

// execute runs one workload: repeated setups, then the timed rounds.
func execute(o options) (*report, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	setup := workloads[o.workload]
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{seed: o.seed, workers: o.workers, work: work}
	chk := &checks{}

	var (
		r          runner
		setupTimes []float64
		setupDig   string
	)
	for i := 0; i < setups; i++ {
		r = nil // let the previous setup's state be collected
		runtime.GC()
		ht := startHostTimer()
		r, err = setup(e)
		setupTimes = append(setupTimes, ht.net())
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		d := r.setupDigest()
		if i == 0 {
			setupDig = d
		} else {
			chk.expect(d == setupDig, "setup %d digest %s differs from setup 0 (%s)", i, d, setupDig)
		}
	}

	var plain, traced []*roundStats
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for {
		tracedRound := o.trace && len(plain) > len(traced)
		var tr *tracer
		if tracedRound {
			tr = newTracer()
		}
		runtime.GC()
		before := obs.Snapshot()
		ht := startHostTimer()
		out := r.round(tr, chk)
		wall, stolen := ht.elapsed()
		rs := &roundStats{wall: wall * (1 - stolen), out: out}
		if tracedRound {
			rs.layers = r.layers(tr, out, counterDelta(before, obs.Snapshot()), wall, o.workers)
			traced = append(traced, rs)
		} else {
			plain = append(plain, rs)
		}
		if first := firstRound(plain, traced); first != rs {
			chk.expect(out.digest == first.out.digest, "round digest %s differs from the first round's %s", out.digest, first.out.digest)
		}
		enough := len(plain) >= minPlainRounds
		if o.trace {
			enough = len(plain) >= minTracedRounds && len(traced) >= minTracedRounds
		}
		// Stop once the floors are met and the next round, at its kind's
		// median length, would end more than half a round past the deadline.
		next := median(walls(plain))
		if o.trace && len(plain) > len(traced) && len(traced) > 0 {
			next = median(walls(traced))
		}
		if enough && time.Now().Add(time.Duration(next/2*float64(time.Second))).After(deadline) {
			break
		}
	}
	extra := r.after(chk)

	rep := &report{setupDigest: setupDig, roundDigest: plain[0].out.digest, sim: map[string]float64{}}
	for k, v := range plain[0].out.sim {
		rep.sim[k] = v
	}
	for k, v := range extra {
		rep.sim[k] = v
	}
	rep.res.Attempted, rep.res.Failed = chk.attempted, chk.failed
	rep.res.Correct = chk.failed == 0
	if o.trace {
		rep.res.Metrics = layerMetrics(plain, traced, extra)
	} else {
		rep.res.Metrics = endToEndMetrics(plain, setupTimes)
	}
	rep.notes = append(rep.notes, hostStamp(o.workers))
	rep.notes = append(rep.notes, fmt.Sprintf("workload %s seed %d: %d setups, %d untraced + %d traced rounds",
		o.workload, o.seed, len(setupTimes), len(plain), len(traced)))
	rep.notes = append(rep.notes, "digest setup "+setupDig, "digest round "+rep.roundDigest)
	rep.notes = append(rep.notes, "simulated "+formatSorted(rep.sim))
	steps := allSteps(plain)
	rep.notes = append(rep.notes, fmt.Sprintf("tick latency: %d untraced steps in %d rounds, %d per round above its p90",
		len(steps), len(plain), countAbove(plain[0].out.steps, 0.9)))
	rep.notes = append(rep.notes, r.notes()...)

	for _, f := range chk.failures {
		rep.notes = append(rep.notes, "FAILED "+f)
	}
	return rep, nil
}

func firstRound(plain, traced []*roundStats) *roundStats {
	if len(plain) > 0 {
		return plain[0]
	}
	return traced[0]
}

// roundStats is one timed round: its host time net of steal, outputs and
// (traced rounds only) per-layer metrics.
type roundStats struct {
	wall   float64
	out    *roundOut
	layers map[string]float64
}

// roundOut is what a workload's round reports besides its wall time.
type roundOut struct {
	// steps are the closed-loop step latencies in seconds: one per trace
	// recorded, arm deployed or replayed, or control-plane tick.
	steps []float64
	// instrs counts the modelled instructions the round simulated or
	// replayed; deploys the closed-loop deployments it completed.
	instrs  int64
	deploys int64
	digest  string
	// sim holds the round's simulated statistics (repeat exactly per seed).
	sim map[string]float64
}

// checks counts checked operations and failures; every output check of a
// workload goes through expect.
type checks struct {
	attempted, failed int64
	failures          []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
}

func walls(rs []*roundStats) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.wall
	}
	return out
}

func allSteps(rs []*roundStats) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.out.steps...)
	}
	return out
}

// endToEndMetrics reduces untraced rounds to BENCHMARK.json's end_to_end
// metrics.
func endToEndMetrics(plain []*roundStats, setupTimes []float64) map[string]metric {
	var instrRate, deployRate []float64
	for _, r := range plain {
		instrRate = append(instrRate, float64(r.out.instrs)/r.wall/1e6)
		deployRate = append(deployRate, float64(r.out.deploys)/r.wall)
	}
	return map[string]metric{
		"setup_s":          {median(setupTimes), "s"},
		"wall_s":           {median(walls(plain)), "s"},
		"sim_minstr_per_s": {median(instrRate), "Minstr/s"},
		"deploys_per_s":    {median(deployRate), "1/s"},
		"tick_p50_ms":      {roundQuantile(plain, 0.5) * 1e3, "ms"},
		"tick_p90_ms":      {roundQuantile(plain, 0.9) * 1e3, "ms"},
	}
}

// roundQuantile is the median over rounds of each round's q-quantile step
// latency: a burst of host noise moves one round's tail, not the result.
func roundQuantile(rs []*roundStats, q float64) float64 {
	per := make([]float64, len(rs))
	for i, r := range rs {
		per[i] = quantile(r.out.steps, q)
	}
	return median(per)
}

func formatSorted(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.6g", k, m[k])
	}
	return strings.Join(parts, " ")
}
