package ctrlplane

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clustergate/internal/durable"
	"clustergate/internal/fleet"
	"clustergate/internal/obs"
)

// interruptResume runs the campaign for kill ticks, abandons the service
// (Close, as a crash would), then builds a fresh Service from resumeCfg —
// same checkpoint path — and drives it to completion, returning the
// resumed run's report and event log. The partial run gets no event log
// on purpose: a resume must reconstruct history from the checkpoint's
// durable backlog alone.
func interruptResume(t *testing.T, cfg, resumeCfg Config, img []byte, wl fleet.Workload, kill int) (*Report, []byte) {
	t.Helper()
	s, err := New(cfg, img, wl)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < kill && !s.Done(); i++ {
		s.Tick()
	}
	killedAt := s.tick
	s.Close()
	if s.ckptErr != nil {
		t.Fatal(s.ckptErr)
	}
	if _, err := os.Stat(cfg.CheckpointPath); err != nil {
		t.Fatalf("no checkpoint after %d ticks: %v", killedAt, err)
	}

	log := obs.NewEventLog()
	obs.SetEventLog(log)
	defer obs.SetEventLog(nil)
	s2, err := New(resumeCfg, img, wl)
	if err != nil {
		t.Fatal(err)
	}
	if s2.tick != killedAt {
		t.Fatalf("resume started at tick %d, checkpoint was at tick %d", s2.tick, killedAt)
	}
	rep, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return rep, buf.Bytes()
}

// TestCheckpointResumeByteIdentical locks the durability contract on a
// reliable fleet: kill the campaign at several tick epochs, resume from
// the checkpoint, and the final Report and event log are byte-identical
// to an uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	wl := testWorkload(t)
	img := testController(t, wl.Cfg, -4, "cp-good")
	base := testConfig(400)
	repU, evU := runCampaign(t, base, img, wl)

	for _, kill := range []int{1, 4, 8} {
		cfg := base
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
		rep, ev := interruptResume(t, cfg, cfg, img, wl, kill)
		if !reflect.DeepEqual(repU, rep) {
			t.Errorf("kill@%d: resumed report diverges:\n%+v\nvs\n%+v", kill, repU, rep)
		}
		if !bytes.Equal(evU, ev) {
			t.Errorf("kill@%d: resumed event log diverges from the uninterrupted run", kill)
		}
	}
}

// TestCheckpointResumeUnderChurn is the same contract with the fault plan
// active — leases, catch-up worklists, and in-flight delayed telemetry
// must all survive the crash. The final resume also changes the ingest
// shard count: snapshots are shard-shape-free and restore re-partitions.
func TestCheckpointResumeUnderChurn(t *testing.T) {
	wl := testWorkload(t)
	img := testController(t, wl.Cfg, -4, "cp-good")
	base := churnConfig(400)
	repU, evU := runCampaign(t, base, img, wl)

	for _, kill := range []int{3, 7} {
		cfg := base
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
		rep, ev := interruptResume(t, cfg, cfg, img, wl, kill)
		if !reflect.DeepEqual(repU, rep) {
			t.Errorf("kill@%d: resumed report diverges under churn:\n%+v\nvs\n%+v", kill, repU, rep)
		}
		if !bytes.Equal(evU, ev) {
			t.Errorf("kill@%d: resumed event log diverges under churn", kill)
		}
	}

	cfg := base
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
	resume := cfg
	resume.Shards = 2
	rep, ev := interruptResume(t, cfg, resume, img, wl, 5)
	if !bytes.Equal(evU, ev) {
		t.Error("resume at a different shard count diverged the event log")
	}
	nu, nr := *repU, *rep
	nu.Shards, nr.Shards, nu.Batches, nr.Batches = 0, 0, 0, 0
	if !reflect.DeepEqual(&nu, &nr) {
		t.Errorf("resume at a different shard count diverged the report:\n%+v\nvs\n%+v", &nu, &nr)
	}
}

// TestCheckpointMismatchStartsFresh: a checkpoint from different campaign
// inputs (or a corrupt file) is ignored — the campaign starts fresh
// instead of resuming someone else's state or failing — and each ignore
// is counted and logged with its reason.
func TestCheckpointMismatchStartsFresh(t *testing.T) {
	wl := testWorkload(t)
	img := testController(t, wl.Cfg, -4, "cp-good")
	cfg := testConfig(200)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")

	s, err := New(cfg, img, wl)
	if err != nil {
		t.Fatal(err)
	}
	s.Tick()
	s.Tick()
	s.Close()
	if s.ckptErr != nil {
		t.Fatal(s.ckptErr)
	}

	// startsFresh builds a service over the checkpoint and requires a
	// fresh start, one ignore counted, and one ignore event with reason.
	startsFresh := func(c Config, reason string) {
		t.Helper()
		log := obs.NewEventLog()
		obs.SetEventLog(log)
		defer obs.SetEventLog(nil)
		before := checkpointsIgnored.Value()
		s, err := New(c, img, wl)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if s.tick != 0 {
			t.Errorf("%s checkpoint resumed at tick %d", reason, s.tick)
		}
		if n := checkpointsIgnored.Value() - before; n != 1 {
			t.Errorf("%s checkpoint: ignored counter rose by %d, want 1", reason, n)
		}
		evs := log.Events()
		if len(evs) != 1 || evs[0].Kind != "ctrlplane.checkpoint.ignore" || evs[0].Attrs["reason"] != reason {
			t.Errorf("%s checkpoint: events %+v, want one ctrlplane.checkpoint.ignore with reason %q", reason, evs, reason)
		}
	}

	other := cfg
	other.Seed = 12
	startsFresh(other, "fingerprint")

	if err := os.WriteFile(cfg.CheckpointPath, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	startsFresh(cfg, "corrupt")

	// A payload that verifies but is not a snapshot is corrupt too.
	if err := durable.WriteFile(cfg.CheckpointPath, checkpointMagic, []byte("[1,2")); err != nil {
		t.Fatal(err)
	}
	startsFresh(cfg, "corrupt")
}

// TestCheckpointInvalidFailsLoudly: a checkpoint whose envelope verifies
// and whose fingerprint matches, but which describes a state the campaign
// cannot be in, makes New return an error — never a panic, never a
// silently trusted resume.
func TestCheckpointInvalidFailsLoudly(t *testing.T) {
	wl := testWorkload(t)
	img := testController(t, wl.Cfg, -4, "cp-good")
	cfg := churnConfig(200)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
	s, err := New(cfg, img, wl)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		s.Tick()
	}
	s.Close()
	if s.ckptErr != nil {
		t.Fatal(s.ckptErr)
	}
	good, err := durable.ReadFile(cfg.CheckpointPath, checkpointMagic)
	if err != nil {
		t.Fatal(err)
	}

	for name, edit := range map[string]func(*campaignSnap){
		"health machine -1": func(c *campaignSnap) {
			c.Health = append(c.Health, healthSnap{Machine: -1})
		},
		"health machine past the fleet": func(c *campaignSnap) {
			c.Health = append(c.Health, healthSnap{Machine: cfg.Machines})
		},
		"unknown ring state":    func(c *campaignSnap) { c.Rings[1].State = ringPromoted + 1 },
		"negative ring state":   func(c *campaignSnap) { c.Rings[0].State = -1 },
		"negative flash offset": func(c *campaignSnap) { c.Rings[0].FlashedUpTo = -1 },
		"pending interval ring": func(c *campaignSnap) {
			c.Future = append(c.Future, interval{Machine: 0, Ring: len(c.Rings), Tick: c.Tick + 1})
		},
		"pending interval machine": func(c *campaignSnap) {
			c.Future = append(c.Future, interval{Machine: -3, Tick: c.Tick + 1})
		},
		"ring accumulators": func(c *campaignSnap) { c.RingAccums = c.RingAccums[:1] },
		"machine count":     func(c *campaignSnap) { c.Machines = c.Machines[1:] },
		"negative tick":     func(c *campaignSnap) { c.Tick = -1 },
		"halt ring":         func(c *campaignSnap) { c.HaltRing = len(c.Rings) },
	} {
		var snap campaignSnap
		if err := json.Unmarshal(good, &snap); err != nil {
			t.Fatal(err)
		}
		edit(&snap)
		data, err := json.Marshal(&snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := durable.WriteFile(cfg.CheckpointPath, checkpointMagic, data); err != nil {
			t.Fatal(err)
		}
		before := checkpointsIgnored.Value()
		s, err := New(cfg, img, wl)
		if err == nil {
			s.Close()
			t.Errorf("%s: New resumed an invalid checkpoint at tick %d", name, s.tick)
			continue
		}
		if checkpointsIgnored.Value() != before {
			t.Errorf("%s: an invalid checkpoint was counted as ignored", name)
		}
	}
}

// FuzzCheckpointRestore: New over an arbitrary checkpoint either errors,
// starts fresh, or resumes (and then ticks) — it never panics. The fuzzed
// bytes are the checkpoint payload, sealed before writing so mutations
// reach the decoder and the validation behind the CRC; the durable
// package's own fuzz target covers the envelope. Seeds are the checkpoints
// a short churn campaign writes.
func FuzzCheckpointRestore(f *testing.F) {
	// Short traces keep an execution cheap: a resume replays every
	// flashed machine's soak deployment.
	wl := workloadOf(f, 2, 100_000)
	img := testController(f, wl.Cfg, -4, "cp-good")
	cfg := churnConfig(40)
	cfg.Workers = 1
	cfg.CheckpointPath = filepath.Join(f.TempDir(), "seed.ckpt")
	s, err := New(cfg, img, wl)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 8 && !s.Done(); i++ {
		s.Tick()
		payload, err := durable.ReadFile(cfg.CheckpointPath, checkpointMagic)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	s.Close()
	f.Add([]byte("{}"))

	f.Fuzz(func(t *testing.T, payload []byte) {
		c := cfg
		c.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
		if err := durable.WriteFile(c.CheckpointPath, checkpointMagic, payload); err != nil {
			t.Fatal(err)
		}
		s, err := New(c, img, wl)
		if err != nil {
			return
		}
		s.Tick()
		s.Close()
	})
}
