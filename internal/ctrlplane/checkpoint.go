package ctrlplane

// Crash-safe campaign checkpointing. With Config.CheckpointPath set, the
// service snapshots its entire control state — ring state machine, machine
// flags and leases, sharded health accumulators, in-flight delayed
// telemetry, and the event backlog — at the end of every tick, as one
// sealed, fsynced durable file. A new Service constructed over the same
// inputs restores the snapshot and continues mid-campaign; because every
// flash outcome, churn transition, and telemetry draw is a pure function
// of the seeds, the resumed campaign's Report and event log are
// byte-identical to an uninterrupted run's.
//
// The durable parts of the control state live in their own structs
// (ringDurable, machineDurable, tallies, ringAccum, machineHealth,
// interval), which the snapshot copies whole, so a field added to one is
// checkpointed with no further code.
//
// Snapshots are deliberately shard-count-free: ring accumulators are
// summed fleet-wide, health records keyed by machine, and future
// intervals carried with their delivery tick — so a campaign can even be
// resumed at a different Shards/BatchSize/Workers setting and still
// produce the same Report (modulo the Batches count, which those knobs
// legitimately change).
//
// A checkpoint that is corrupt, or whose fingerprint doesn't match the
// campaign inputs, is ignored: counted in ctrlplane.checkpoint.ignored,
// logged as a ctrlplane.checkpoint.ignore event with its reason, and the
// campaign starts fresh. One that verifies and matches but describes a
// state this campaign cannot be in fails New with an error instead of
// being trusted.

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"clustergate/internal/durable"
	"clustergate/internal/fleet"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
)

// checkpointMagic tags a campaign checkpoint in the durable envelope.
var checkpointMagic = [4]byte{'C', 'G', 'C', 'P'}

// checkpointsIgnored counts checkpoints restore discarded as corrupt or
// belonging to other campaign inputs.
var checkpointsIgnored = obs.NewCounter("ctrlplane.checkpoint.ignored")

// healthSnap is one machine's ingested health record.
type healthSnap struct {
	Machine int `json:"m"`
	machineHealth
}

// campaignSnap is the full durable state of a campaign at a tick epoch.
type campaignSnap struct {
	Fingerprint string `json:"fingerprint"`
	Tick        int    `json:"tick"`
	tallies

	Rings      []ringDurable    `json:"rings"`
	Machines   []machineDurable `json:"machines"`
	RingAccums []ringAccum      `json:"ring_accums"`
	Health     []healthSnap     `json:"health,omitempty"`
	Batches    int64            `json:"batches"`
	Future     []interval       `json:"future,omitempty"`
	Events     []obs.Event      `json:"events,omitempty"`
}

// fingerprint binds a checkpoint to the campaign inputs that determine
// its schedule: seeds, fleet shape, gate cadence, transport model, image
// bytes, and the fault plan. Ingest knobs (Shards, BatchSize, QueueDepth,
// Workers) are deliberately absent — they never affect control decisions.
func (s *Service) fingerprint() string {
	plan, _ := json.Marshal(s.cfg.Faults)
	return fmt.Sprintf(
		"v2|seed=%d|machines=%d|rings=%v|quorum=%v|soak=%d|fpt=%d|ipt=%d|lease=%d|verify=%t|corrupt=%v/%d|fail=%v/%d|img=%08x|traces=%d|faults=%s",
		s.cfg.Seed, s.cfg.Machines, s.cfg.RingFracs, s.cfg.Quorum,
		s.cfg.SoakTicks, s.cfg.FlashPerTick, s.cfg.IntervalsPerTick,
		s.cfg.LeaseTicks, s.cfg.Verify, s.cfg.CorruptProb, s.cfg.CorruptBits,
		s.cfg.FlashFailProb, s.cfg.FlashRetries,
		crc32.ChecksumIEEE(s.spec.Img), len(s.soaker.Workload().Traces), plan)
}

// snapshot persists the campaign state at the current tick epoch. Called
// at the end of every Tick; a no-op without a CheckpointPath. The first
// failure latches and surfaces from Run.
func (s *Service) snapshot() {
	if s.cfg.CheckpointPath == "" || s.ckptErr != nil {
		return
	}
	snap := campaignSnap{
		Fingerprint: s.fingerprint(),
		Tick:        s.tick,
		tallies:     s.tally,
		Rings:       make([]ringDurable, len(s.rings)),
		Machines:    make([]machineDurable, len(s.machines)),
		RingAccums:  make([]ringAccum, len(s.rings)),
	}
	for i, rc := range s.rings {
		snap.Rings[i] = rc.ringDurable
		snap.RingAccums[i] = s.ringTotal(i)
	}
	for m := range s.machines {
		snap.Machines[m] = s.machines[m].machineDurable
	}
	// Health and future intervals are keyed by machine and re-partitioned
	// on restore.
	for _, sh := range s.shards {
		snap.Batches += sh.batches
		for m, mh := range sh.health {
			snap.Health = append(snap.Health, healthSnap{Machine: m, machineHealth: *mh})
		}
		for _, ivs := range sh.future {
			snap.Future = append(snap.Future, ivs...)
		}
	}
	sort.Slice(snap.Health, func(a, b int) bool {
		return snap.Health[a].Machine < snap.Health[b].Machine
	})
	// Stable by (tick, machine): each machine's intervals live in one
	// shard's stash in production order, so the stable sort preserves
	// their per-machine delivery order.
	sort.SliceStable(snap.Future, func(a, b int) bool {
		if snap.Future[a].Tick != snap.Future[b].Tick {
			return snap.Future[a].Tick < snap.Future[b].Tick
		}
		return snap.Future[a].Machine < snap.Future[b].Machine
	})
	s.eventsMu.Lock()
	snap.Events = append([]obs.Event(nil), s.events...)
	s.eventsMu.Unlock()

	data, err := json.Marshal(&snap)
	if err != nil {
		s.ckptErr = fmt.Errorf("ctrlplane: checkpoint marshal: %w", err)
		return
	}
	if err := durable.WriteFile(s.cfg.CheckpointPath, checkpointMagic, data); err != nil {
		s.ckptErr = fmt.Errorf("ctrlplane: checkpoint: %w", err)
	}
}

// restore resumes from an existing checkpoint file, if one verifies and
// matches this campaign's fingerprint. A missing checkpoint leaves the
// fresh state untouched; a corrupt or mismatched one is ignored (counted
// and logged); a matching one that fails validation is an error. Called
// from New before the ingest consumers start.
func (s *Service) restore() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	data, err := durable.ReadFile(s.cfg.CheckpointPath, checkpointMagic)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	var snap campaignSnap
	if err == nil {
		if jerr := json.Unmarshal(data, &snap); jerr != nil {
			err = fmt.Errorf("%w: %v", durable.ErrCorrupt, jerr)
		}
	}
	switch {
	case errors.Is(err, durable.ErrCorrupt):
		s.ignoreCheckpoint("corrupt")
		return nil
	case err != nil:
		return fmt.Errorf("ctrlplane: checkpoint read: %w", err)
	case snap.Fingerprint != s.fingerprint():
		s.ignoreCheckpoint("fingerprint")
		return nil
	}
	if err := s.checkSnap(&snap); err != nil {
		return fmt.Errorf("ctrlplane: checkpoint %s: %w", s.cfg.CheckpointPath, err)
	}

	s.tick, s.tally = snap.Tick, snap.tallies
	for i := range snap.Rings {
		s.rings[i].ringDurable = snap.Rings[i]
	}
	for m := range snap.Machines {
		s.machines[m].machineDurable = snap.Machines[m]
	}
	// Re-partition the shard state over however many shards this service
	// has: summed accumulators and the batch total land in shard 0 (every
	// reader sums across shards), health and future intervals go to each
	// machine's home shard.
	copy(s.shards[0].rings, snap.RingAccums)
	s.shards[0].batches = snap.Batches
	for _, hs := range snap.Health {
		mh := hs.machineHealth
		s.shards[hs.Machine%len(s.shards)].health[hs.Machine] = &mh
	}
	for _, iv := range snap.Future {
		sh := s.shards[iv.Machine%len(s.shards)]
		sh.future[iv.Tick] = append(sh.future[iv.Tick], iv)
	}
	// Replay the event backlog into the fresh process's event log, and
	// keep it as this service's backlog so later snapshots carry the full
	// history.
	s.events = snap.Events
	if obs.EventsActive() {
		for _, ev := range s.events {
			obs.Emit(ev.Scope, ev.T, ev.Kind, ev.Attrs)
		}
	}
	s.recomputeProfiles()
	return nil
}

// ignoreCheckpoint records a checkpoint restore discarded, with the
// reason ("corrupt" or "fingerprint"). The event goes to the process
// event log only: it describes this process's start, not the campaign,
// so it stays out of the durable backlog.
func (s *Service) ignoreCheckpoint(reason string) {
	checkpointsIgnored.Inc()
	if obs.EventsActive() {
		obs.Emit(s.scope, int64(s.tick), "ctrlplane.checkpoint.ignore", map[string]any{"reason": reason})
	}
}

// checkSnap checks that a fingerprint-matching snapshot describes a state
// this campaign can be in, so a hand-edited or buggy checkpoint fails
// loudly instead of panicking or being trusted.
func (s *Service) checkSnap(snap *campaignSnap) error {
	nr, nm := len(s.rings), len(s.machines)
	switch {
	case snap.Tick < 0:
		return fmt.Errorf("negative tick %d", snap.Tick)
	case len(snap.Rings) != nr || len(snap.RingAccums) != nr:
		return fmt.Errorf("%d rings and %d ring accumulators for %d rings",
			len(snap.Rings), len(snap.RingAccums), nr)
	case len(snap.Machines) != nm:
		return fmt.Errorf("%d machines for %d", len(snap.Machines), nm)
	case snap.HaltRing < -1 || snap.HaltRing >= nr:
		return fmt.Errorf("halt ring %d outside %d rings", snap.HaltRing, nr)
	}
	for i, rd := range snap.Rings {
		if rd.State < ringPending || rd.State > ringPromoted {
			return fmt.Errorf("ring %d: unknown state %d", i, rd.State)
		}
		if rd.FlashedUpTo < 0 || rd.FlashedUpTo > len(s.rings[i].machines) {
			return fmt.Errorf("ring %d: flashed up to %d of %d machines",
				i, rd.FlashedUpTo, len(s.rings[i].machines))
		}
	}
	for _, hs := range snap.Health {
		if hs.Machine < 0 || hs.Machine >= nm {
			return fmt.Errorf("health record for machine %d outside %d machines", hs.Machine, nm)
		}
	}
	for _, iv := range snap.Future {
		if iv.Machine < 0 || iv.Machine >= nm || iv.Ring < 0 || iv.Ring >= nr {
			return fmt.Errorf("pending interval for machine %d, ring %d outside %d machines, %d rings",
				iv.Machine, iv.Ring, nm, nr)
		}
	}
	return nil
}

// recomputeProfiles rebuilds every flashed machine's soak profile by
// replaying its install against the same transport schedule that landed
// it (original or re-flash seed) — flash outcomes are pure functions of
// (seed, machine, phase), so the replay reproduces the identical
// controller and profile. Events are dropped during the replay: the
// backlog already carries the CRC rejections the original run recorded.
func (s *Service) recomputeProfiles() {
	var ids []int
	for m := range s.machines {
		if s.machines[m].Flashed {
			ids = append(ids, m)
		}
	}
	if len(ids) == 0 {
		return
	}
	drop := func(int64, string, map[string]any) {}
	spec, reflash := s.spec, s.reflash
	spec.Emitter, reflash.Emitter = drop, drop
	traces := len(s.soaker.Workload().Traces)
	_ = parallel.ForEach(s.cfg.Workers, len(ids), func(j int) error {
		m := ids[j]
		mc := &s.machines[m]
		sp := &spec
		if mc.ViaReflash {
			sp = &reflash
		}
		fo := sp.Flash(m, fleet.PhaseInstall)
		if fo.Installed && !fo.Crashed && fo.Ctrl != nil {
			if fo.Corrupt {
				mc.profile = s.soaker.Deploy(fo.Ctrl, m%traces)
			} else {
				mc.profile = s.soaker.Pristine(fo.Ctrl, m%traces)
			}
		}
		return nil
	})
}
