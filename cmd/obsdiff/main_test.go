package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustergate/internal/obs"
)

// writeDoc drops a JSON document into the test dir and returns its path.
func writeDoc(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// diff runs obsdiff with args and returns (exit status, combined output).
func diff(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String() + errb.String()
}

// metric is one envelope metric of a test fixture.
type metric struct {
	key   string
	value float64
	gate  obs.Gate
	tol   obs.Tol
}

// envelope renders a bench envelope the way the producers write it.
func envelope(t *testing.T, name string, ms []metric) string {
	t.Helper()
	b := obs.NewBench(name, nil)
	for _, m := range ms {
		b.Set(m.key, m.value, "", m.gate, m.tol)
	}
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// with returns a copy of ms with the given values replaced.
func with(ms []metric, values map[string]float64) []metric {
	out := append([]metric(nil), ms...)
	for i := range out {
		if v, ok := values[out[i].key]; ok {
			out[i].value = v
		}
	}
	return out
}

// uarchBench declares one benchmark's metrics as scripts/uarch-bench-json.go
// does: per-op and per-instruction time lower-better at the timing
// tolerance, allocations exact at the counter tolerance.
func uarchBench(name string, nsPerOp, nsPerInstr, allocs float64) []metric {
	return []metric{
		{name + ".ns_per_op", nsPerOp, obs.GateLowerBetter, obs.TolTiming},
		{name + ".ns_per_instr", nsPerInstr, obs.GateLowerBetter, obs.TolTiming},
		{name + ".allocs_per_op", allocs, obs.GateExact, obs.TolCounter},
	}
}

func uarchBase() []metric {
	return append(uarchBench("A", 1000, 10, 0), uarchBench("B", 2000, 20, 3)...)
}

func TestUarchClean(t *testing.T) {
	base := writeDoc(t, "base.json", envelope(t, "uarch", uarchBase()))
	cur := writeDoc(t, "cur.json", envelope(t, "uarch", append(uarchBench("A", 1100, 11, 0), uarchBench("B", 1500, 15, 3)...)))
	code, out := diff(t, "-tol", "0.5", base, cur)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
}

func TestUarchTimingRegression(t *testing.T) {
	base := writeDoc(t, "base.json", envelope(t, "uarch", uarchBase()))
	cur := writeDoc(t, "cur.json", envelope(t, "uarch", append(uarchBench("A", 5000, 50, 0), uarchBench("B", 2000, 20, 3)...)))
	code, out := diff(t, "-tol", "0.5", base, cur)
	if code != 1 || !strings.Contains(out, "A.ns_per_op") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestUarchAllocRegressionExact(t *testing.T) {
	base := writeDoc(t, "base.json", envelope(t, "uarch", uarchBase()))
	cur := writeDoc(t, "cur.json", envelope(t, "uarch", append(uarchBench("A", 1000, 10, 1), uarchBench("B", 2000, 20, 3)...)))
	code, out := diff(t, base, cur)
	if code != 1 || !strings.Contains(out, "A.allocs_per_op") {
		t.Fatalf("alloc growth must regress: exit %d:\n%s", code, out)
	}
}

func TestUarchMissingBenchmarkWarnsOnly(t *testing.T) {
	base := writeDoc(t, "base.json", envelope(t, "uarch", uarchBase()))
	cur := writeDoc(t, "cur.json", envelope(t, "uarch", append(uarchBench("A", 1000, 10, 0), uarchBench("C", 1, 1, 0)...)))
	code, out := diff(t, base, cur)
	if code != 0 || !strings.Contains(out, "WARN") {
		t.Fatalf("one-sided benchmarks must warn, not fail: exit %d:\n%s", code, out)
	}
}

const manifestBase = `{"tool":"paperbench","seed":1,"wall_seconds":10,
	"counters":{"core.deployments":50,"dataset.cache.hits":7,"parallel.inflight.peak":4},
	"histograms":{"uarch.execute.batch":{"count":100,"p50_ms":1,"p95_ms":2,"p99_ms":3}}}`

func TestManifestCounterDriftFails(t *testing.T) {
	base := writeDoc(t, "base.json", manifestBase)
	cur := writeDoc(t, "cur.json", `{"tool":"paperbench","seed":1,"wall_seconds":10,
		"counters":{"core.deployments":49,"dataset.cache.hits":7,"parallel.inflight.peak":4},
		"histograms":{"uarch.execute.batch":{"count":100,"p50_ms":1,"p95_ms":2,"p99_ms":3}}}`)
	code, out := diff(t, base, cur)
	if code != 1 || !strings.Contains(out, "counters.core.deployments") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestManifestSkipGlobs(t *testing.T) {
	base := writeDoc(t, "base.json", manifestBase)
	// Cache hits and pool peak change; both match default skip globs. The
	// percentiles drift within their log2 buckets.
	cur := writeDoc(t, "cur.json", `{"tool":"paperbench","seed":1,"wall_seconds":12,
		"counters":{"core.deployments":50,"dataset.cache.hits":0,"parallel.inflight.peak":1},
		"histograms":{"uarch.execute.batch":{"count":100,"p50_ms":1.04,"p95_ms":2.09,"p99_ms":3}}}`)
	code, out := diff(t, base, cur)
	if code != 0 {
		t.Fatalf("skip-glob keys must not fail: exit %d:\n%s", code, out)
	}
}

func TestManifestHistogramPercentileRegression(t *testing.T) {
	base := writeDoc(t, "base.json", manifestBase)
	cur := writeDoc(t, "cur.json", `{"tool":"paperbench","seed":1,"wall_seconds":10,
		"counters":{"core.deployments":50,"dataset.cache.hits":7,"parallel.inflight.peak":4},
		"histograms":{"uarch.execute.batch":{"count":100,"p50_ms":9,"p95_ms":2,"p99_ms":3}}}`)
	code, out := diff(t, "-tol", "0.5", base, cur)
	if code != 1 || !strings.Contains(out, "uarch.execute.batch.p50_ms") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	// A faster percentile never regresses.
	cur2 := writeDoc(t, "cur2.json", `{"tool":"paperbench","seed":1,"wall_seconds":10,
		"counters":{"core.deployments":50,"dataset.cache.hits":7,"parallel.inflight.peak":4},
		"histograms":{"uarch.execute.batch":{"count":100,"p50_ms":0.1,"p95_ms":0.2,"p99_ms":0.3}}}`)
	if code, out := diff(t, base, cur2); code != 0 {
		t.Fatalf("speedup flagged: exit %d:\n%s", code, out)
	}
}

// TestManifestPercentileBucketShift: manifest percentiles are log2 bucket
// midpoints rounded to µs, so a one-bucket shift must read exactly 2× and
// pass -tol 1.0, and a two-bucket shift must fail it. The pairs are real
// ones from quick-run manifests.
func TestManifestPercentileBucketShift(t *testing.T) {
	manifest := func(name string, p95 float64) string {
		return writeDoc(t, name, fmt.Sprintf(`{"tool":"paperbench","seed":1,"wall_seconds":10,
			"counters":{},"histograms":{"fleet.flash.latency":{"count":10,"p50_ms":0.741,"p95_ms":%v,"p99_ms":94.906}}}`, p95))
	}
	for _, c := range []struct {
		base, cur float64
		code      int
	}{
		{0.741, 1.483, 0},
		{94.906, 189.813, 0},
		{1.483, 0.741, 0},
		{0.741, 2.966, 1},
	} {
		code, out := diff(t, "-tol", "1.0", manifest("base.json", c.base), manifest("cur.json", c.cur))
		if code != c.code {
			t.Errorf("p95 %v -> %v at -tol 1.0: exit %d, want %d:\n%s", c.base, c.cur, code, c.code, out)
		}
	}
	if got := bucketMS(0.741); got != 1.048576 {
		t.Errorf("bucketMS(0.741) = %v, want 2^20 ns = 1.048576 ms", got)
	}
}

func TestManifestWallSecondsWarnOnly(t *testing.T) {
	base := writeDoc(t, "base.json", manifestBase)
	cur := writeDoc(t, "cur.json", `{"tool":"paperbench","seed":1,"wall_seconds":100,
		"counters":{"core.deployments":50,"dataset.cache.hits":7,"parallel.inflight.peak":4},
		"histograms":{"uarch.execute.batch":{"count":100,"p50_ms":1,"p95_ms":2,"p99_ms":3}}}`)
	code, out := diff(t, base, cur)
	if code != 0 || !strings.Contains(out, "wall_seconds") {
		t.Fatalf("wall_seconds must warn, not fail: exit %d:\n%s", code, out)
	}
}

// ctrlplaneBase declares the ctrlplane-soak bench document's gates as
// paperbench writes them.
func ctrlplaneBase() []metric {
	return []metric{
		{"machines", 10000, obs.GateExact, obs.TolCounter},
		{"shards", 8, obs.GateExact, obs.TolCounter},
		{"ticks", 30, obs.GateExact, obs.TolCounter},
		{"intervals", 500000, obs.GateExact, obs.TolCounter},
		{"decisions", 500010, obs.GateExact, obs.TolCounter},
		{"machines_per_sec", 4000, obs.GateHigherBetter, obs.TolTiming},
		{"decisions_per_sec", 200000, obs.GateHigherBetter, obs.TolTiming},
		{"p95_decision_ms", 0.5, obs.GateLowerBetter, obs.TolTiming},
		{"wall_seconds", 5, obs.GateWarn, obs.TolTiming},
		{"completed", 1, obs.GateVerdict, obs.TolMetric},
		{"bad_caught", 1, obs.GateVerdict, obs.TolMetric},
	}
}

func TestCtrlplaneThroughputDropFails(t *testing.T) {
	base := writeDoc(t, "base.json", envelope(t, "ctrlplane-soak", ctrlplaneBase()))
	cur := writeDoc(t, "cur.json", envelope(t, "ctrlplane-soak", with(ctrlplaneBase(), map[string]float64{
		"wall_seconds": 20, "machines_per_sec": 1000, "decisions_per_sec": 50000})))
	code, out := diff(t, "-tol", "0.5", base, cur)
	if code != 1 || !strings.Contains(out, "machines_per_sec") || !strings.Contains(out, "decisions_per_sec") {
		t.Fatalf("throughput drop must regress: exit %d:\n%s", code, out)
	}
	// Faster is never a regression: quadruple throughput, clean exit.
	cur2 := writeDoc(t, "cur2.json", envelope(t, "ctrlplane-soak", with(ctrlplaneBase(), map[string]float64{
		"wall_seconds": 1, "machines_per_sec": 16000, "decisions_per_sec": 800000, "p95_decision_ms": 0.1})))
	if code, out := diff(t, "-tol", "0.5", base, cur2); code != 0 {
		t.Fatalf("speedup flagged: exit %d:\n%s", code, out)
	}
}

func TestCtrlplaneLatencyAndVolumeGates(t *testing.T) {
	base := writeDoc(t, "base.json", envelope(t, "ctrlplane-soak", ctrlplaneBase()))
	// p95 decision latency blowing past the timing tolerance fails.
	cur := writeDoc(t, "cur.json", envelope(t, "ctrlplane-soak", with(ctrlplaneBase(), map[string]float64{"p95_decision_ms": 5})))
	code, out := diff(t, "-tol", "0.5", base, cur)
	if code != 1 || !strings.Contains(out, "p95_decision_ms") {
		t.Fatalf("latency growth must regress: exit %d:\n%s", code, out)
	}
	// Deterministic volume fields drifting fails at the counter tolerance.
	cur2 := writeDoc(t, "cur2.json", envelope(t, "ctrlplane-soak", with(ctrlplaneBase(), map[string]float64{"intervals": 499000})))
	if code, out := diff(t, base, cur2); code != 1 || !strings.Contains(out, "intervals") {
		t.Fatalf("interval drift must regress: exit %d:\n%s", code, out)
	}
}

func TestCtrlplaneVerdictFlipFails(t *testing.T) {
	base := writeDoc(t, "base.json", envelope(t, "ctrlplane-soak", ctrlplaneBase()))
	cur := writeDoc(t, "cur.json", envelope(t, "ctrlplane-soak", with(ctrlplaneBase(), map[string]float64{"bad_caught": 0})))
	code, out := diff(t, base, cur)
	if code != 1 || !strings.Contains(out, "bad_caught") {
		t.Fatalf("bad_caught flip must regress: exit %d:\n%s", code, out)
	}
}

// churnArm declares one ctrlplane-churn arm's gates as paperbench writes
// them.
func churnArm(key string, rate, lease, completion, leaves, joins, catchUp, stale, deferrals float64) []metric {
	return []metric{
		{key + ".churn_rate", rate, obs.GateExact, obs.TolMetric},
		{key + ".lease_ticks", lease, obs.GateExact, obs.TolMetric},
		{key + ".completed", 1, obs.GateVerdict, obs.TolMetric},
		{key + ".completion_rate", completion, obs.GateHigherBetter, obs.TolMetric},
		{key + ".leaves", leaves, obs.GateExact, obs.TolCounter},
		{key + ".joins", joins, obs.GateExact, obs.TolCounter},
		{key + ".catch_up_flashes", catchUp, obs.GateExact, obs.TolCounter},
		{key + ".stale_quarantines", stale, obs.GateExact, obs.TolCounter},
		{key + ".gate_deferrals", deferrals, obs.GateExact, obs.TolCounter},
	}
}

func churnBase() []metric {
	ms := append(churnArm("churn05-lease2", 0.05, 2, 0.97, 40, 60, 35, 12, 2),
		churnArm("churn10-lease4", 0.10, 4, 0.95, 80, 120, 70, 5, 1)...)
	return append(ms,
		metric{"machines", 2000, obs.GateExact, obs.TolCounter},
		metric{"good_completed", 1, obs.GateVerdict, obs.TolMetric},
		metric{"bad_caught", 1, obs.GateVerdict, obs.TolMetric},
		metric{"wall_seconds", 8, obs.GateWarn, obs.TolTiming},
		metric{"p95_decision_ms", 0.4, obs.GateLowerBetter, obs.TolTiming})
}

func TestCtrlplaneChurnCompletionDropFails(t *testing.T) {
	base := writeDoc(t, "base.json", envelope(t, "ctrlplane-churn", churnBase()))
	cur := writeDoc(t, "cur.json", envelope(t, "ctrlplane-churn", with(churnBase(), map[string]float64{"churn05-lease2.completion_rate": 0.40})))
	code, out := diff(t, "-tol", "0.5", base, cur)
	if code != 1 || !strings.Contains(out, "churn05-lease2.completion_rate") {
		t.Fatalf("completion-rate drop must regress: exit %d:\n%s", code, out)
	}
	// Completion is a deterministic outcome gated at -mtol, not -tol: even
	// a small drop regresses however coarse the timing tolerance.
	cur3 := writeDoc(t, "cur3.json", envelope(t, "ctrlplane-churn", with(churnBase(), map[string]float64{"churn05-lease2.completion_rate": 0.95})))
	if code, out := diff(t, "-tol", "1.0", base, cur3); code != 1 || !strings.Contains(out, "completion_rate") {
		t.Fatalf("small completion drop must regress at coarse -tol: exit %d:\n%s", code, out)
	}
	// A higher completion rate never flags.
	cur2 := writeDoc(t, "cur2.json", envelope(t, "ctrlplane-churn", with(churnBase(), map[string]float64{"churn10-lease4.completion_rate": 0.99})))
	if code, out := diff(t, "-tol", "0.5", base, cur2); code != 0 {
		t.Fatalf("completion gain flagged: exit %d:\n%s", code, out)
	}
}

func TestCtrlplaneChurnCounterDriftFails(t *testing.T) {
	base := writeDoc(t, "base.json", envelope(t, "ctrlplane-churn", churnBase()))
	cur := writeDoc(t, "cur.json", envelope(t, "ctrlplane-churn", with(churnBase(), map[string]float64{"churn05-lease2.stale_quarantines": 13})))
	code, out := diff(t, base, cur)
	if code != 1 || !strings.Contains(out, "churn05-lease2.stale_quarantines") {
		t.Fatalf("liveness-count drift must regress at ctol 0: exit %d:\n%s", code, out)
	}
}

func TestCtrlplaneChurnVerdictFlipFails(t *testing.T) {
	base := writeDoc(t, "base.json", envelope(t, "ctrlplane-churn", churnBase()))
	cur := writeDoc(t, "cur.json", envelope(t, "ctrlplane-churn", with(churnBase(), map[string]float64{"bad_caught": 0})))
	code, out := diff(t, base, cur)
	if code != 1 || !strings.Contains(out, "bad_caught") {
		t.Fatalf("bad_caught flip must regress: exit %d:\n%s", code, out)
	}
	// Latency growth past tolerance fails one-sided.
	cur2 := writeDoc(t, "cur2.json", envelope(t, "ctrlplane-churn", with(churnBase(), map[string]float64{"p95_decision_ms": 4})))
	if code, out := diff(t, "-tol", "0.5", base, cur2); code != 1 || !strings.Contains(out, "p95_decision_ms") {
		t.Fatalf("latency growth must regress: exit %d:\n%s", code, out)
	}
}

// without returns a copy of ms minus the given keys.
func without(ms []metric, keys ...string) []metric {
	var out []metric
	for _, m := range ms {
		drop := false
		for _, k := range keys {
			drop = drop || m.key == k
		}
		if !drop {
			out = append(out, m)
		}
	}
	return out
}

func TestBenchDroppedMetricFails(t *testing.T) {
	base := writeDoc(t, "base.json", envelope(t, "ctrlplane-churn", churnBase()))
	// A verdict the producer stopped emitting is a regression, not a
	// warning, and so is one field of an arm that is still reported.
	for _, key := range []string{"bad_caught", "good_completed", "churn05-lease2.completion_rate", "churn10-lease4.completed"} {
		cur := writeDoc(t, "cur.json", envelope(t, "ctrlplane-churn", without(churnBase(), key)))
		if code, out := diff(t, base, cur); code != 1 || !strings.Contains(out, key) || !strings.Contains(out, "missing from current") {
			t.Fatalf("dropped %s must regress: exit %d:\n%s", key, code, out)
		}
	}
	// A dropped warn-only metric still only warns.
	cur := writeDoc(t, "cur.json", envelope(t, "ctrlplane-churn", without(churnBase(), "wall_seconds")))
	if code, out := diff(t, base, cur); code != 0 || !strings.Contains(out, "WARN") {
		t.Fatalf("dropped warn metric must warn: exit %d:\n%s", code, out)
	}
	// Removing a whole arm is a configuration change: it warns.
	var arm []string
	for _, m := range churnBase() {
		if strings.HasPrefix(m.key, "churn10-lease4.") {
			arm = append(arm, m.key)
		}
	}
	cur2 := writeDoc(t, "cur2.json", envelope(t, "ctrlplane-churn", without(churnBase(), arm...)))
	if code, out := diff(t, base, cur2); code != 0 || !strings.Contains(out, "WARN") {
		t.Fatalf("removed arm must warn, not fail: exit %d:\n%s", code, out)
	}
}

func TestManifestMissingCounterWarnsOnly(t *testing.T) {
	base := writeDoc(t, "base.json", manifestBase)
	cur := writeDoc(t, "cur.json", `{"tool":"paperbench","seed":1,"wall_seconds":10,
		"counters":{"dataset.cache.hits":7,"parallel.inflight.peak":4},
		"histograms":{"uarch.execute.batch":{"count":100,"p50_ms":1,"p95_ms":2,"p99_ms":3}}}`)
	code, out := diff(t, base, cur)
	if code != 0 || !strings.Contains(out, "counters.core.deployments") {
		t.Fatalf("a manifest counter only in the baseline must warn: exit %d:\n%s", code, out)
	}
}

const resultsBase = `{"tool":"paperbench","results":[
	{"name":"table3","seconds":5,"metrics":{"pgos.00":0.95,"ops.00":6051}},
	{"name":"fig7","seconds":1,"metrics":{"mean_residency":0.48}}]}`

func TestResultsMetricDriftFails(t *testing.T) {
	base := writeDoc(t, "base.json", resultsBase)
	cur := writeDoc(t, "cur.json", `{"tool":"paperbench","results":[
		{"name":"table3","seconds":5,"metrics":{"pgos.00":0.90,"ops.00":6051}},
		{"name":"fig7","seconds":1,"metrics":{"mean_residency":0.48}}]}`)
	code, out := diff(t, base, cur)
	if code != 1 || !strings.Contains(out, "table3.pgos.00") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestResultsSecondsWarnOnly(t *testing.T) {
	base := writeDoc(t, "base.json", resultsBase)
	cur := writeDoc(t, "cur.json", `{"tool":"paperbench","results":[
		{"name":"table3","seconds":50,"metrics":{"pgos.00":0.95,"ops.00":6051}},
		{"name":"fig7","seconds":1,"metrics":{"mean_residency":0.48}}]}`)
	code, out := diff(t, base, cur)
	if code != 0 || !strings.Contains(out, "table3.seconds") {
		t.Fatalf("slow experiment must warn, not fail: exit %d:\n%s", code, out)
	}
}

func TestSchemaMismatch(t *testing.T) {
	base := writeDoc(t, "base.json", envelope(t, "uarch", uarchBase()))
	cur := writeDoc(t, "cur.json", resultsBase)
	if code, _ := diff(t, base, cur); code != 2 {
		t.Fatalf("schema mismatch must exit 2, got %d", code)
	}
	// Envelopes of two different benches are not comparable either.
	other := writeDoc(t, "other.json", envelope(t, "ctrlplane-soak", ctrlplaneBase()))
	if code, _ := diff(t, base, other); code != 2 {
		t.Fatalf("bench name mismatch must exit 2, got %d", code)
	}
	// An envelope that fails validation is a schema error, not a diff.
	bad := writeDoc(t, "bad.json", strings.Replace(envelope(t, "uarch", uarchBase()), `"exact"`, `"timing"`, 1))
	if code, out := diff(t, base, bad); code != 2 || !strings.Contains(out, "unknown gate") {
		t.Fatalf("invalid envelope must exit 2: exit %d:\n%s", code, out)
	}
}

func TestIdenticalFilesClean(t *testing.T) {
	docs := []string{
		envelope(t, "uarch", uarchBase()), manifestBase, resultsBase,
		envelope(t, "ctrlplane-soak", ctrlplaneBase()), envelope(t, "ctrlplane-churn", churnBase()),
	}
	for _, doc := range docs {
		base := writeDoc(t, "base.json", doc)
		cur := writeDoc(t, "cur.json", doc)
		if code, out := diff(t, base, cur); code != 0 {
			t.Fatalf("identical files differ: %s\n%s", doc[:40], out)
		}
	}
}
