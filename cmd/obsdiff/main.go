// Command obsdiff diffs two observability artifacts — bench envelopes
// (clustergate-bench/v1, written by paperbench -benchdir and
// scripts/uarch-bench-json.go), run manifests (paperbench -manifest) or
// results files (-results) — and flags regressions beyond tolerance.
// scripts/check.sh runs it against the checked-in BENCH baselines as the
// repo's performance gate.
//
// Usage:
//
//	obsdiff [-tol F] [-ctol F] [-mtol F] [-skip GLOBS] BASELINE CURRENT
//
// The two files must be the same kind (and envelopes the same name);
// obsdiff detects it from the content. Every value it compares is a
// declared metric with a gate and a tolerance class. An envelope declares
// its own; for the two obs-owned formats obsdiff declares them: manifest
// counters and histogram sample counts exact at the counter tolerance,
// histogram percentiles lower-better at the timing tolerance (compared as
// their exact log2 bucket bounds, so a one-bucket shift reads exactly 2×),
// result metrics exact at the metric tolerance, and wall clock and
// per-experiment seconds warn-only at the timing tolerance.
//
// The gates: exact flags drift beyond tolerance in either direction,
// higher_better a drop beyond it, lower_better a rise beyond it, verdict a
// 0/1 outcome that went from 1 to 0, and warn prints drift beyond
// tolerance without failing. The tolerance classes map to one flag each:
//
//   - timing: noisy wall-clock values, relative tolerance -tol (default
//     0.5, so a >1.5× slowdown flags).
//   - counter: deterministic event counts for a fixed configuration,
//     relative tolerance -ctol (default 0 = exact). Manifest counters and
//     histograms matching a -skip glob (default "dataset.cache.*,*.peak",
//     which vary with cache state and core count) are ignored.
//   - metric: the experiment outcomes themselves, relative tolerance
//     -mtol (default 1e-6); any drift means the science changed.
//
// A metric only in the current file is a warning, so adding
// instrumentation never breaks the gate. A metric only in the baseline is
// a warning too, with one exception: in a bench envelope, a gated (not
// warn) metric whose group — the key up to its last dot, such as one
// benchmark or one campaign arm — is still present in the current file is
// a regression, since a producer that stops emitting a verdict or a field
// would otherwise pass unnoticed. Removing a whole group (a benchmark or
// an arm) warns. Exit status: 0 clean (warnings allowed), 1 regression, 2
// usage or schema error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path"
	"sort"
	"strings"

	"clustergate/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// tolerances carries the three tolerance-class values and skip globs.
type tolerances struct {
	timing, counter, metric float64
	skips                   []string
}

// of returns the tolerance a metric's class selects.
func (t tolerances) of(c obs.Tol) float64 {
	switch c {
	case obs.TolTiming:
		return t.timing
	case obs.TolCounter:
		return t.counter
	}
	return t.metric
}

// skipped reports whether a manifest counter or histogram name matches a
// -skip glob.
func (t tolerances) skipped(name string) bool {
	for _, g := range t.skips {
		if ok, _ := path.Match(g, name); ok {
			return true
		}
	}
	return false
}

// run is the testable entry point; returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obsdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var tol tolerances
	var skip string
	fs.Float64Var(&tol.timing, "tol", 0.5, "relative tolerance for timing-class values")
	fs.Float64Var(&tol.counter, "ctol", 0, "relative tolerance for counter-class values (0 = exact)")
	fs.Float64Var(&tol.metric, "mtol", 1e-6, "relative tolerance for metric-class values (experiment outcomes)")
	fs.StringVar(&skip, "skip", "dataset.cache.*,*.peak", "comma-separated manifest counter/histogram globs to ignore")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: obsdiff [-tol F] [-ctol F] [-mtol F] [-skip GLOBS] BASELINE CURRENT")
		return 2
	}
	for _, g := range strings.Split(skip, ",") {
		if g = strings.TrimSpace(g); g != "" {
			tol.skips = append(tol.skips, g)
		}
	}

	bkind, base, err := load(fs.Arg(0), tol)
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 2
	}
	ckind, cur, err := load(fs.Arg(1), tol)
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 2
	}
	if bkind != ckind {
		fmt.Fprintf(stderr, "obsdiff: schema mismatch: %s is %s, %s is %s\n", fs.Arg(0), bkind, fs.Arg(1), ckind)
		return 2
	}

	d := &differ{w: stdout, tol: tol, envelope: strings.HasPrefix(bkind, "bench ")}
	d.compare(base, cur)
	fmt.Fprintf(stdout, "obsdiff: %d regression(s), %d warning(s) [%s]\n", d.regressions, d.warnings, bkind)
	if d.regressions > 0 {
		return 1
	}
	return 0
}

// load reads one artifact and flattens it to declared metrics, returning
// its kind ("bench <name>", "results" or "manifest") alongside.
func load(p string, tol tolerances) (string, map[string]obs.BenchMetric, error) {
	data, err := os.ReadFile(p)
	if err != nil {
		return "", nil, err
	}
	var probe struct {
		Schema  string          `json:"schema"`
		Tool    string          `json:"tool"`
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return "", nil, fmt.Errorf("%s: %w", p, err)
	}
	switch {
	case probe.Schema != "":
		b, err := obs.ParseBench(data)
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", p, err)
		}
		return "bench " + b.Name, b.Metrics, nil
	case probe.Results != nil:
		var f obs.ResultsFile
		if err := json.Unmarshal(data, &f); err != nil {
			return "", nil, fmt.Errorf("%s: %w", p, err)
		}
		return "results", resultsMetrics(&f), nil
	case probe.Tool != "":
		var m obs.Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return "", nil, fmt.Errorf("%s: %w", p, err)
		}
		return "manifest", manifestMetrics(&m, tol), nil
	}
	return "", nil, fmt.Errorf("%s: unrecognised schema", p)
}

// resultsMetrics declares a results file's gates: each experiment metric
// exact at the metric tolerance, each experiment's seconds warn-only.
func resultsMetrics(f *obs.ResultsFile) map[string]obs.BenchMetric {
	b := obs.NewBench("results", nil)
	for _, r := range f.Results {
		for k, v := range r.Metrics {
			b.Set(r.Name+"."+k, v, "", obs.GateExact, obs.TolMetric)
		}
		b.Set(r.Name+".seconds", r.Seconds, "s", obs.GateWarn, obs.TolTiming)
	}
	return b.Metrics
}

// manifestMetrics declares a run manifest's gates: counter deltas and
// histogram sample counts exact at the counter tolerance (minus skip
// globs), histogram percentiles lower-better at the timing tolerance in
// bucket units (see bucketMS), wall clock warn-only.
func manifestMetrics(m *obs.Manifest, tol tolerances) map[string]obs.BenchMetric {
	b := obs.NewBench("manifest", nil)
	for k, v := range m.Counters {
		if !tol.skipped(k) {
			b.Set("counters."+k, float64(v), "", obs.GateExact, obs.TolCounter)
		}
	}
	for name, h := range m.Histograms {
		if tol.skipped(name) {
			continue
		}
		k := "histograms." + name + "."
		b.Set(k+"count", float64(h.Count), "", obs.GateExact, obs.TolCounter)
		b.Set(k+"p50_ms", bucketMS(h.P50MS), "ms", obs.GateLowerBetter, obs.TolTiming)
		b.Set(k+"p95_ms", bucketMS(h.P95MS), "ms", obs.GateLowerBetter, obs.TolTiming)
		b.Set(k+"p99_ms", bucketMS(h.P99MS), "ms", obs.GateLowerBetter, obs.TolTiming)
	}
	b.Set("wall_seconds", m.WallSeconds, "s", obs.GateWarn, obs.TolTiming)
	return b.Metrics
}

// bucketMS recovers the log2 histogram bucket a manifest percentile came
// from and returns that bucket's exact bound, 2^k ns, in ms. A manifest
// percentile is a bucket midpoint, 2^(k-1/2) ns, rounded to µs, so the
// rounded midpoints of neighbouring buckets differ by slightly more than
// 2×; their exact bounds differ by exactly 2× (a one-bucket shift passes
// -tol 1.0, two buckets fail it).
func bucketMS(ms float64) float64 {
	if ms <= 0 {
		return 0
	}
	return math.Exp2(math.Round(math.Log2(ms*1e6)+0.5)) / 1e6
}

// differ accumulates findings. envelope marks a bench-envelope
// comparison, where a gated metric dropped from a surviving group fails.
type differ struct {
	w           io.Writer
	tol         tolerances
	envelope    bool
	regressions int
	warnings    int
}

func (d *differ) fail(key string, base, cur float64, note string) {
	d.regressions++
	fmt.Fprintf(d.w, "REGRESSION %-40s baseline %v, current %v (%s)\n", key, base, cur, note)
}

func (d *differ) warn(format string, args ...any) {
	d.warnings++
	fmt.Fprintf(d.w, "WARN %s\n", fmt.Sprintf(format, args...))
}

// relDelta is (cur-base)/base; a zero baseline compares exactly.
func relDelta(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return 1
	}
	return (cur - base) / base
}

// group is a metric key's prefix up to its last dot ("" for a top-level
// key): one benchmark, arm or experiment.
func group(key string) string {
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		return key[:i]
	}
	return ""
}

// compare gates every metric present in both files under the baseline's
// declaration, in sorted key order so findings print stably. A metric in
// only one file is warned once, unless it is a gated envelope metric
// dropped from a group the current file still has.
func (d *differ) compare(base, cur map[string]obs.BenchMetric) {
	keys := make([]string, 0, len(base)+len(cur))
	for k := range base {
		keys = append(keys, k)
	}
	curGroups := map[string]bool{}
	for k := range cur {
		curGroups[group(k)] = true
		if _, ok := base[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, inBase := base[k]
		c, inCur := cur[k]
		switch {
		case !inCur && d.envelope && b.Gate != obs.GateWarn && curGroups[group(k)]:
			d.regressions++
			fmt.Fprintf(d.w, "REGRESSION %-40s baseline %v, missing from current (%s gate)\n", k, *b.Value, b.Gate)
			continue
		case !inCur:
			d.warn("metric %q only in baseline", k)
			continue
		case !inBase:
			d.warn("metric %q only in current", k)
			continue
		}
		if b.Gate != c.Gate || b.Tol != c.Tol {
			d.warn("%s declared %s/%s, now %s/%s; gating under the baseline's", k, b.Gate, b.Tol, c.Gate, c.Tol)
		}
		bv, cv, tol := *b.Value, *c.Value, d.tol.of(b.Tol)
		r := relDelta(bv, cv)
		switch b.Gate {
		case obs.GateExact:
			if math.Abs(r) > tol {
				d.fail(k, bv, cv, fmt.Sprintf("drift %.2g > %.2g %s tolerance", r, tol, b.Tol))
			}
		case obs.GateHigherBetter:
			if r < -tol {
				d.fail(k, bv, cv, fmt.Sprintf("%.4g%% lower > %.4g%% %s tolerance", -100*r, 100*tol, b.Tol))
			}
		case obs.GateLowerBetter:
			if r > tol {
				d.fail(k, bv, cv, fmt.Sprintf("%.4g%% higher > %.4g%% %s tolerance", 100*r, 100*tol, b.Tol))
			}
		case obs.GateVerdict:
			if bv == 1 && cv == 0 {
				d.fail(k, bv, cv, "verdict flipped to false")
			}
		case obs.GateWarn:
			if math.Abs(r) > tol {
				d.warn("%s %v -> %v (%+.0f%%; warn-only)", k, bv, cv, 100*r)
			}
		}
	}
}
