package ctrlplane

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/fleet"
	"clustergate/internal/ml"
	"clustergate/internal/ml/linear"
	"clustergate/internal/obs"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
)

// testController builds a constant-probability logistic controller sealed
// into an image: bias -4 never gates (healthy), bias +4 always gates (a
// miscalibrated image whose misgate rate collapses the health gate).
func testController(t testing.TB, cfg dataset.Config, bias float64, name string) []byte {
	t.Helper()
	cs := telemetry.NewStandardCounterSet()
	cols, err := core.ColumnsByName(cs, telemetry.Table4Names())
	if err != nil {
		t.Fatal(err)
	}
	n := len(cols)
	std := make([]float64, n)
	for i := range std {
		std[i] = 1
	}
	lg := &linear.Logistic{
		W: make([]float64, n), B: bias,
		Scaler: &ml.Scaler{Mean: make([]float64, n), Std: std},
	}
	g := &core.GatingController{
		Name:     name,
		HighPerf: core.PointPredictor{M: lg}, LowPower: core.PointPredictor{M: lg},
		ThresholdHigh: 0.5, ThresholdLow: 0.5,
		Interval: cfg.Interval, Granularity: 2 * cfg.Interval,
		Counters: cs, Columns: cols,
		SLA: dataset.SLA{PSLA: 0.9},
	}
	var buf bytes.Buffer
	if err := core.SaveController(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testWorkload builds a small simulated SPEC workload for soak profiles.
func testWorkload(t testing.TB) fleet.Workload {
	return workloadOf(t, 4, 200_000)
}

// workloadOf builds a simulated SPEC workload of n traces of instrs
// instructions each.
func workloadOf(t testing.TB, n, instrs int) fleet.Workload {
	t.Helper()
	if testing.Short() {
		t.Skip("ctrlplane workload simulation skipped in -short mode")
	}
	cfg := dataset.DefaultConfig()
	spec := trace.BuildSPEC(trace.SPECConfig{TracesPerWorkload: 1, InstrsPerTrace: instrs, Seed: 13})
	sub := &trace.Corpus{Name: "spec-sub", Traces: spec.Traces[:n]}
	return fleet.Workload{
		Traces: sub.Traces,
		Tel:    dataset.SimulateCorpus(sub, cfg),
		Cfg:    cfg,
		PM:     power.DefaultModel(),
	}
}

// looseGate promotes unless health collapses entirely.
func looseGate() fleet.GatePolicy {
	return fleet.GatePolicy{MaxCRCRejectRate: 1, MaxTripsPerMachine: 1e9, MaxSLARate: 1, MaxMisgateRate: 1}
}

// testConfig is a small but structurally complete campaign: staged rings,
// CRC verification under corruption pressure, transient flash failures,
// multi-tick flashing of the broad ring.
func testConfig(machines int) Config {
	return Config{
		Name: "cp-test", Machines: machines, Shards: 4, Seed: 11,
		FlashPerTick: machines / 4, Gate: looseGate(),
		Guardrail: core.DefaultGuardrail(),
		Verify:    true, CorruptProb: 0.25, FlashFailProb: 0.25, FlashRetries: 4,
	}
}

// runCampaign builds, runs, and closes one service, returning its report
// and the (sorted, rendered) event log bytes.
func runCampaign(t *testing.T, cfg Config, img []byte, wl fleet.Workload) (*Report, []byte) {
	t.Helper()
	log := obs.NewEventLog()
	obs.SetEventLog(log)
	defer obs.SetEventLog(nil)
	s, err := New(cfg, img, wl)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return rep, buf.Bytes()
}

// TestCampaignDeterminism locks the tentpole contract: the Report, the
// printed report, and the event log are byte-identical at workers 1 and 4.
func TestCampaignDeterminism(t *testing.T) {
	wl := testWorkload(t)
	img := testController(t, wl.Cfg, -4, "cp-good")
	base := testConfig(600)

	c1 := base
	c1.Workers = 1
	r1, ev1 := runCampaign(t, c1, img, wl)
	c4 := base
	c4.Workers = 4
	r4, ev4 := runCampaign(t, c4, img, wl)

	if !reflect.DeepEqual(r1, r4) {
		t.Errorf("reports diverge across worker counts:\n%+v\nvs\n%+v", r1, r4)
	}
	if !bytes.Equal(ev1, ev4) {
		t.Error("event logs diverge across worker counts")
	}
	var p1, p4 bytes.Buffer
	Print(&p1, r1)
	Print(&p4, r4)
	if p1.String() != p4.String() {
		t.Error("printed reports diverge across worker counts")
	}

	if !r1.Completed {
		t.Fatalf("healthy campaign did not complete: halted at ring %d (%s)",
			r1.HaltedRing, r1.HaltReason)
	}
	if r1.Intervals == 0 || r1.Batches == 0 {
		t.Error("campaign ingested no telemetry")
	}
	if r1.Decisions <= r1.Intervals {
		t.Errorf("decisions %d should exceed intervals %d (gate evaluations)",
			r1.Decisions, r1.Intervals)
	}
	if len(r1.Rings) != 4 {
		t.Fatalf("got %d rings, want 4", len(r1.Rings))
	}
	for _, st := range r1.Rings {
		if !st.Promoted {
			t.Errorf("ring %d not promoted in a completed campaign", st.Index)
		}
		if st.Intervals == 0 {
			t.Errorf("ring %d soaked without streaming telemetry", st.Index)
		}
	}
	// Pipelining: the broad ring must finish flashing no later than the
	// ring ahead of it was promoted — its flash waves overlapped the
	// previous ring's soak (flash N while N−1 soaks).
	if r1.Rings[3].FlashDoneTick > r1.Rings[2].PromotedTick {
		t.Errorf("ring 3 finished flashing at t%d, after ring 2's promotion at t%d — not pipelined",
			r1.Rings[3].FlashDoneTick, r1.Rings[2].PromotedTick)
	}
	if !strings.Contains(string(ev1), "ctrlplane.ring.promote") {
		t.Error("event log missing ring promotions")
	}
}

// TestBadImageHaltsAtCanary is the acceptance scenario: a miscalibrated
// image (gates every window) ships through the same control plane, the
// canary's health gate catches it, and every flashed machine — including
// the pipelined next ring's — is rolled back.
func TestBadImageHaltsAtCanary(t *testing.T) {
	wl := testWorkload(t)
	img := testController(t, wl.Cfg, 4, "cp-bad") // always gate: misgate rate ≈ 1
	cfg := testConfig(600)
	cfg.CorruptProb = 0 // clean transport isolates the semantic failure
	cfg.Gate = fleet.GatePolicy{MaxCRCRejectRate: 1, MaxTripsPerMachine: 1e9, MaxSLARate: 1, MaxMisgateRate: 0.35}

	rep, ev := runCampaign(t, cfg, img, wl)
	if rep.Completed {
		t.Fatal("bad image completed the campaign")
	}
	if rep.HaltedRing != 0 {
		t.Errorf("halted at ring %d, want the canary (ring 0)", rep.HaltedRing)
	}
	if !strings.Contains(rep.HaltReason, "misgate") {
		t.Errorf("halt reason %q, want a misgate-rate failure", rep.HaltReason)
	}
	if !rep.RolledBack || rep.Installed != 0 {
		t.Errorf("rollback incomplete: rolledBack=%v installed=%d", rep.RolledBack, rep.Installed)
	}
	if rep.RollbackFlashes != rep.Flashed {
		t.Errorf("rolled back %d machines, want every flashed machine (%d)",
			rep.RollbackFlashes, rep.Flashed)
	}
	// The pipelined ring 1 was already flashing during the canary soak;
	// its machines must be inside the rollback too.
	if rep.Flashed <= rep.Rings[0].Size {
		t.Errorf("only %d machines flashed; pipelining should have flashed ring 1 (canary size %d)",
			rep.Flashed, rep.Rings[0].Size)
	}
	if !strings.Contains(string(ev), "ctrlplane.ring.halt") || !strings.Contains(string(ev), "ctrlplane.rollback") {
		t.Error("event log missing halt/rollback events")
	}
}

// TestQuorumPromotionAndReflash exercises partial-ring promotion: with no
// flash retries under heavy corruption, CRC rejections exhaust many
// machines; a 0.5 quorum still promotes the ring and the straggler
// re-flash pass (fresh transport schedule) recovers most of them. A 0.999
// quorum over the same transport halts instead.
func TestQuorumPromotionAndReflash(t *testing.T) {
	wl := testWorkload(t)
	img := testController(t, wl.Cfg, -4, "cp-good")
	cfg := testConfig(400)
	cfg.CorruptProb = 0.3
	cfg.FlashRetries = 0 // one attempt: every corrupted transfer exhausts its machine
	cfg.Quorum = 0.5

	rep, _ := runCampaign(t, cfg, img, wl)
	if !rep.Completed {
		t.Fatalf("campaign halted: ring %d (%s)", rep.HaltedRing, rep.HaltReason)
	}
	var reflashed, recovered int
	for _, st := range rep.Rings {
		reflashed += st.Reflashed
		recovered += st.ReflashRecovered
		if st.QuorumDen == 0 {
			t.Errorf("ring %d promoted without a recorded quorum", st.Index)
		}
	}
	if reflashed == 0 {
		t.Fatal("30% corruption with no retries produced no stragglers")
	}
	if recovered == 0 {
		t.Error("re-flash pass recovered no stragglers")
	}
	if recovered >= reflashed {
		// ~30% of re-flashes should fail again; all-recovered would
		// suggest the pass is not drawing a fresh schedule.
		t.Logf("note: all %d stragglers recovered on re-flash", reflashed)
	}
	if rep.Installed+rep.Rejected != rep.Machines {
		t.Errorf("installed %d + rejected %d != %d machines",
			rep.Installed, rep.Rejected, rep.Machines)
	}

	strict := cfg
	strict.Quorum = 0.999
	srep, _ := runCampaign(t, strict, img, wl)
	if srep.Completed {
		t.Fatal("0.999 quorum under 30% no-retry corruption completed")
	}
	if !strings.Contains(srep.HaltReason, "quorum") {
		t.Errorf("halt reason %q, want a quorum failure", srep.HaltReason)
	}
	if !srep.RolledBack {
		t.Error("quorum halt did not roll back")
	}
}

// TestBackpressureInvariance locks the bounded-queue contract: a one-batch
// queue (producers constantly blocked on consumers) produces the identical
// Report as a deep queue.
func TestBackpressureInvariance(t *testing.T) {
	wl := testWorkload(t)
	img := testController(t, wl.Cfg, -4, "cp-good")
	deep := testConfig(300)
	deep.QueueDepth = 8
	shallow := testConfig(300)
	shallow.QueueDepth = 1
	shallow.BatchSize = 16

	dr, _ := runCampaign(t, deep, img, wl)
	sr, _ := runCampaign(t, shallow, img, wl)
	// Batch counts differ by construction (batch size differs); all
	// simulation-derived fields must not.
	dr.Batches, sr.Batches = 0, 0
	if !reflect.DeepEqual(dr, sr) {
		t.Errorf("reports diverge across queue depths:\n%+v\nvs\n%+v", dr, sr)
	}
}
