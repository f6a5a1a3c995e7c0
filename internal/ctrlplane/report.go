package ctrlplane

import (
	"fmt"
	"io"
)

// RingStatus is one ring's end-of-campaign state.
type RingStatus struct {
	Index, Size int
	// Installed machines run the new image at campaign end (before any
	// rollback); Rejected exhausted every flash and re-flash attempt;
	// Crashes counts machines the ingest layer observed down during the
	// soak (plus install-time decode crashes).
	Installed, Rejected, Crashes int
	// QuorumNum/QuorumDen record the install quorum at the transport
	// decision (before the straggler re-flash pass).
	QuorumNum, QuorumDen int
	// Reflashed stragglers got a second-pass flash; ReflashRecovered of
	// them installed on it.
	Reflashed, ReflashRecovered int
	// FlashRetries and CRCRejects total the ring's transport events
	// across both passes.
	FlashRetries, CRCRejects int
	// Quarantined counts installed machines held out of the health gate
	// (absent or lease-expired) at the decision that settled the ring.
	Quarantined int
	// Promoted reports the ring passed its health gate; GateFailure names
	// the violated threshold when the campaign halted at this ring.
	Promoted    bool
	GateFailure string
	// Soak telemetry as ingested: interval count and the accumulated
	// health numbers the gate was evaluated on.
	Intervals                 int64
	Trips                     int
	SLAWindows, SLAViolations int
	Misgated, Truth0          int
	// FlashDoneTick and PromotedTick locate the ring on the campaign
	// clock (-1 when the phase was never reached).
	FlashDoneTick, PromotedTick int
}

// Report is one campaign's deterministic outcome: identical Config, image,
// and workload produce a deeply equal Report at any Workers/Shards
// setting. It contains no wall-clock fields — throughput lives in the
// experiment layer's bench JSON.
type Report struct {
	// Machines and Shards echo the campaign shape; Ticks is the logical
	// duration.
	Machines, Shards, Ticks int
	// Completed reports every ring was promoted. Halted campaigns carry
	// the failing ring and reason (HaltedRing is -1 otherwise).
	Completed  bool
	HaltedRing int
	HaltReason string
	// Rings is the per-ring breakdown, canary first.
	Rings []RingStatus
	// Fleet-wide machine accounting: Flashed ever installed the new
	// image, Installed still run it, Exposed installed a corrupted
	// payload, Rejected never installed, Crashed went down on it.
	Flashed, Installed, Exposed, Rejected, Crashed int
	// RolledBack reports a gate failure reverted the fleet;
	// RollbackFlashes counts the slot-switch flashes and RollbackRetries
	// their transient retries.
	RolledBack      bool
	RollbackFlashes int
	RollbackRetries int
	// Ingest volume: telemetry intervals folded, batches they arrived in.
	Intervals, Batches int64
	// Decisions counts every control decision served: one per ingested
	// interval (a window judgment) plus one per gate evaluation.
	Decisions int64
	// FlashAttempts, FlashRetries, and CRCRejects total the campaign's
	// transport events across all rings and passes.
	FlashAttempts, FlashRetries, CRCRejects int
	// Liveness accounting, all zero for a reliable fleet: membership
	// transitions observed (Leaves/Joins), catch-up flashes issued for
	// machines that missed their wave and how many installed, lease
	// expiries (StaleQuarantines) and renewals, health-gate deferrals
	// taken in degraded mode, and quorum re-evaluations forced by
	// membership changes in soaking rings.
	Leaves, Joins                    int
	CatchUpFlashes, CatchUpInstalled int
	StaleQuarantines, LeaseRenewals  int
	GateDeferrals, QuorumReevals     int
}

// report assembles the Report from the terminal control state. Call only
// after Close (Run does).
func (s *Service) report() *Report {
	r := &Report{
		Machines: s.cfg.Machines, Shards: s.cfg.Shards, Ticks: s.tick,
		Completed:  !s.tally.Halted,
		HaltedRing: s.tally.HaltRing, HaltReason: s.tally.HaltReason,
		RolledBack:      s.tally.RolledBack,
		RollbackFlashes: s.tally.RollbackFlashes,
		RollbackRetries: s.tally.RollbackRetries,
		Leaves:          s.tally.Leaves, Joins: s.tally.Joins,
		CatchUpFlashes: s.tally.CatchUpFlashes, CatchUpInstalled: s.tally.CatchUpInstalled,
		StaleQuarantines: s.tally.StaleQuarantines, LeaseRenewals: s.tally.LeaseRenewals,
		GateDeferrals: s.tally.GateDeferrals, QuorumReevals: s.tally.QuorumReevals,
	}
	for _, mc := range s.machines {
		if mc.Flashed {
			r.Flashed++
		}
		if mc.Installed {
			r.Installed++
		}
		if mc.Corrupt && mc.Flashed {
			r.Exposed++
		}
		if mc.Rejected {
			r.Rejected++
		}
		if mc.Crashed {
			r.Crashed++
		}
	}
	for _, rc := range s.rings {
		st := RingStatus{
			Index: rc.index, Size: len(rc.machines),
			Installed: rc.Installed, Rejected: rc.Rejected,
			QuorumNum: rc.QuorumNum, QuorumDen: rc.QuorumDen,
			Reflashed: rc.Reflashed, ReflashRecovered: rc.ReflashRecovered,
			FlashRetries: rc.FlashRetries, CRCRejects: rc.CRCRejects,
			Promoted: rc.State == ringPromoted, GateFailure: rc.GateFailure,
			FlashDoneTick: rc.FlashDoneTick, PromotedTick: rc.PromotedTick,
			Crashes: rc.FlashCrashes, Quarantined: rc.Quarantined,
		}
		acc := s.ringTotal(rc.index)
		st.Intervals = acc.Intervals
		st.Trips = acc.Trips
		st.SLAWindows = acc.Windows
		st.SLAViolations = acc.Violations
		st.Misgated = acc.Misgated
		st.Truth0 = acc.Truth0
		st.Crashes += acc.Crashes
		r.Rings = append(r.Rings, st)
		r.FlashAttempts += rc.FlashAttempts
		r.FlashRetries += rc.FlashRetries
		r.CRCRejects += rc.CRCRejects
	}
	for _, sh := range s.shards {
		r.Batches += sh.batches
		for i := range sh.rings {
			r.Intervals += sh.rings[i].Intervals
		}
	}
	r.Decisions = r.Intervals + s.tally.GateEvals
	return r
}

// MachineHealth returns machine m's ingested health record (zero when the
// machine never streamed telemetry). For tests and diagnostics; call only
// after the campaign terminated.
func (s *Service) MachineHealth(m int) (trips, windows, violations, misgated, truth0 int, crashed bool) {
	sh := s.shards[m%len(s.shards)]
	mh := sh.health[m]
	if mh == nil {
		return 0, 0, 0, 0, 0, false
	}
	return mh.Trips, mh.Windows, mh.Violations, mh.Misgated, mh.Truth0, mh.Crashed
}

// Print renders the report as the deterministic experiment text: logical
// ticks and counts only, never wall-clock.
func Print(w io.Writer, r *Report) {
	outcome := "completed"
	if !r.Completed {
		outcome = fmt.Sprintf("HALTED at ring %d: %s", r.HaltedRing, r.HaltReason)
	}
	fmt.Fprintf(w, "Control plane: %d machines, %d shards, %d ticks — %s\n",
		r.Machines, r.Shards, r.Ticks, outcome)
	fmt.Fprintf(w, "  fleet: %d flashed, %d installed, %d exposed, %d rejected, %d crashed\n",
		r.Flashed, r.Installed, r.Exposed, r.Rejected, r.Crashed)
	fmt.Fprintf(w, "  ingest: %d intervals in %d batches, %d decisions; transport: %d attempts, %d retries, %d CRC rejects\n",
		r.Intervals, r.Batches, r.Decisions, r.FlashAttempts, r.FlashRetries, r.CRCRejects)
	if r.RolledBack {
		fmt.Fprintf(w, "  rollback: %d machines slot-switched, %d retried flashes\n",
			r.RollbackFlashes, r.RollbackRetries)
	}
	if r.Leaves+r.Joins+r.StaleQuarantines+r.CatchUpFlashes+r.GateDeferrals > 0 {
		fmt.Fprintf(w, "  churn: %d leaves, %d joins, %d catch-up flashes (%d installed), %d stale leases (%d renewed), %d gate deferrals, %d quorum re-evals\n",
			r.Leaves, r.Joins, r.CatchUpFlashes, r.CatchUpInstalled,
			r.StaleQuarantines, r.LeaseRenewals, r.GateDeferrals, r.QuorumReevals)
	}
	fmt.Fprintf(w, "  %-5s %8s %10s %8s %9s %7s %6s %7s  %s\n",
		"ring", "size", "quorum", "reflash", "intervals", "slaviol", "trips", "misgate", "state")
	for _, st := range r.Rings {
		quorum := "-"
		if st.QuorumDen > 0 {
			quorum = fmt.Sprintf("%d/%d", st.QuorumNum, st.QuorumDen)
		}
		reflash := "-"
		if st.Reflashed > 0 {
			reflash = fmt.Sprintf("%d/%d", st.ReflashRecovered, st.Reflashed)
		}
		state := "pending"
		switch {
		case st.Promoted:
			state = fmt.Sprintf("promoted@t%d", st.PromotedTick)
		case st.GateFailure != "":
			state = "halted: " + st.GateFailure
		case st.FlashDoneTick >= 0:
			state = "soaking"
		}
		misgate := "-"
		if st.Truth0 > 0 {
			misgate = fmt.Sprintf("%.3f", float64(st.Misgated)/float64(st.Truth0))
		}
		fmt.Fprintf(w, "  %-5d %8d %10s %8s %9d %7d %6d %7s  %s\n",
			st.Index, st.Size, quorum, reflash, st.Intervals, st.SLAViolations,
			st.Trips, misgate, state)
	}
}
