package main

import (
	"sync"
	"time"

	"clustergate/internal/obs"
)

// decl declares one metric as BENCHMARK.json lists it; a self-test keeps
// the two in step.
type decl struct{ name, unit, better string }

// endToEndDecls are printed with --trace 0 on every workload, measured on
// untraced rounds.
var endToEndDecls = []decl{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"sim_minstr_per_s", "Minstr/s", "higher"},
	{"deploys_per_s", "1/s", "higher"},
	{"tick_p50_ms", "ms", "lower"},
	{"tick_p90_ms", "ms", "lower"},
}

// perLayerDecls are printed with --trace 1 on every workload. Times are
// busy seconds per round summed over workers (medians over traced
// rounds); a layer a workload's rounds never reach reads 0.
var perLayerDecls = []decl{
	{"trace.gen_s", "s", "lower"},
	{"trace.minstr_per_s", "Minstr/s", "higher"},
	{"uarch.exec_s", "s", "lower"},
	{"uarch.instructions", "count", "lower"},
	{"uarch.cycles", "count", "lower"},
	{"uarch.batch_p95_ms", "ms", "lower"},
	{"uarch.minstr_per_s", "Minstr/s", "higher"},
	{"telemetry.snapshot_s", "s", "lower"},
	{"telemetry.expand_s", "s", "lower"},
	{"dataset.record_s", "s", "lower"},
	{"dataset.intervals_recorded", "count", "higher"},
	{"dataset.cache_read_s", "s", "lower"},
	{"dataset.cache.bytes_written", "B", "lower"},
	{"dataset.cache.bytes_read", "B", "lower"},
	{"dataset.cache.hits", "count", "higher"},
	{"dataset.cache.misses", "count", "lower"},
	{"counters.select_s", "s", "lower"},
	{"counters.selected", "count", "higher"},
	{"ml.train_s", "s", "lower"},
	{"mcu.ops_per_pred", "count", "lower"},
	{"mcu.ops_executed", "count", "lower"},
	{"core.deploy_s", "s", "lower"},
	{"core.deploy_self_s", "s", "lower"},
	{"core.deployments", "count", "higher"},
	{"core.predictions", "count", "higher"},
	{"core.guardrail.trips", "count", "lower"},
	{"core.image_decode_s", "s", "lower"},
	{"core.image_decodes", "count", "lower"},
	{"core.ppw_gain_pct", "%", "higher"},
	{"core.rsv_pct", "%", "lower"},
	{"fault.injected", "count", "higher"},
	{"surrogate.train_s", "s", "lower"},
	{"surrogate.replay_s", "s", "lower"},
	{"surrogate.interval_s", "s", "lower"},
	{"surrogate.spot_checks", "count", "higher"},
	{"surrogate.err_p95_pct", "%", "lower"},
	{"fleet.flash_s", "s", "lower"},
	{"fleet.flash.attempts", "count", "lower"},
	{"fleet.flash.retries", "count", "lower"},
	{"fleet.crc.rejections", "count", "lower"},
	{"fleet.install_ratio", "ratio", "higher"},
	{"fleet.soak_s", "s", "lower"},
	{"fleet.soaks", "count", "lower"},
	{"ctrlplane.tick_s", "s", "lower"},
	{"ctrlplane.self_s", "s", "lower"},
	{"ctrlplane.ticks", "count", "lower"},
	{"ctrlplane.intervals.ingested", "count", "higher"},
	{"ctrlplane.batches", "count", "higher"},
	{"ctrlplane.ingest.blocked", "count", "lower"},
	{"ctrlplane.ingest.depth_peak", "count", "lower"},
	{"ctrlplane.fold_p95_ms", "ms", "lower"},
	{"ctrlplane.decisions", "count", "higher"},
	{"ctrlplane.stale_quarantines", "count", "lower"},
	{"ctrlplane.machines_per_s", "1/s", "higher"},
	{"ctrlplane.completion_pct", "%", "higher"},
	{"ctrlplane.bad_exposed", "count", "lower"},
	{"parallel.tasks", "count", "lower"},
	{"parallel.task_p95_ms", "ms", "lower"},
	{"parallel.inflight_peak", "count", "higher"},
	{"parallel.retries", "count", "lower"},
	{"host.peak_rss_mb", "MB", "lower"},
	{"obs.self_sum_pct", "%", "higher"},
	{"obs.trace_overhead_pct", "%", "lower"},
}

// foldScope is the control plane's per-batch fold-latency histogram for
// every campaign the benchmark runs.
const foldScope = "cgbench.ctrlplane.fold"

// layerMetrics reduces traced rounds to the per-layer metrics: each is the
// median of its per-round values, except those a run measures once
// (extra) and the process-wide gauges and histograms read at the end.
func layerMetrics(plain, traced []*roundStats, extra map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayerDecls))
	for _, d := range perLayerDecls {
		vs := make([]float64, len(traced))
		for i, r := range traced {
			vs[i] = r.layers[d.name]
		}
		v := median(vs)
		if x, ok := extra[d.name]; ok {
			v = x
		}
		out[d.name] = metric{v, d.unit}
	}
	set := func(name string, v float64) { out[name] = metric{v, out[name].Unit} }
	set("obs.trace_overhead_pct", (median(walls(traced))/median(walls(plain))-1)*100)
	set("host.peak_rss_mb", peakRSSMB())
	snap := obs.Snapshot()
	set("parallel.inflight_peak", float64(snap["parallel.inflight.peak"]))
	set("ctrlplane.ingest.depth_peak", float64(snap["ctrlplane.ingest.depth.peak"]))
	set("parallel.task_p95_ms", obs.NewHistogram("parallel.task.latency").Snapshot().P95MS)
	set("ctrlplane.fold_p95_ms", obs.NewHistogram(foldScope).Snapshot().P95MS)
	return out
}

// tracer records one traced round: spans from the benchmark's own code
// around its calls into each layer, summed per layer as busy seconds.
// Layers nested inside another layer's call are timed in sub-passes
// (subpass.go). A nil tracer records nothing, so untraced rounds pay one
// nil check per span.
type tracer struct {
	mu   sync.Mutex
	busy map[string]float64
}

func newTracer() *tracer { return &tracer{busy: map[string]float64{}} }

// span starts timing one call into layer; calling the result ends it.
func (t *tracer) span(layer string) func() {
	if t == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { t.add(layer, time.Since(t0).Seconds()) }
}

func (t *tracer) add(layer string, seconds float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.busy[layer] += seconds
	t.mu.Unlock()
}
