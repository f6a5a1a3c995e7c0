package main

import (
	"math/rand"
	"sync"
	"time"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/surrogate"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// nested holds sub-pass timings of the layers that run inside one timed
// call: the benchmark adds no instrumentation to the program, so after a
// traced round it re-runs each nested layer's public function on the same
// inputs — Stream.Read, Core.Execute, ExtractBase/BaseToEvents,
// CounterSet.Snapshot, the surrogate's Splice + residual — and the outer
// call's self time is what the nested times leave of its span.
type nested struct {
	gen, exec, expand, snapshot, interval float64 // busy seconds
	genInstrs                             int64
	batches                               []float64 // Core.Execute batch latencies, seconds
}

func (n *nested) total() float64 { return n.gen + n.exec + n.expand + n.snapshot + n.interval }

// scale multiplies the times and counts of a sampled sub-pass up to the
// whole round (latency samples stay as measured).
func (n *nested) scale(f float64) {
	for _, p := range []*float64{&n.gen, &n.exec, &n.expand, &n.snapshot, &n.interval} {
		*p *= f
	}
	n.genInstrs = int64(float64(n.genInstrs) * f)
}

func (n *nested) merge(o *nested) {
	n.gen += o.gen
	n.exec += o.exec
	n.expand += o.expand
	n.snapshot += o.snapshot
	n.interval += o.interval
	n.genInstrs += o.genInstrs
	n.batches = append(n.batches, o.batches...)
}

// fanOut runs fn(i, part) for i in [0, n) on workers goroutines, each with
// its own nested accumulator, and merges them. Sub-passes use it instead
// of the program's parallel package so they leave its counters alone.
func fanOut(workers, n int, fn func(i int, part *nested)) *nested {
	parts := make([]nested, workers)
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(part *nested) {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= n {
					return
				}
				fn(k, part)
			}
		}(&parts[w])
	}
	wg.Wait()
	out := &nested{}
	for w := range parts {
		out.merge(&parts[w])
	}
	return out
}

// streamCore pairs a trace stream with a core and times every Read and
// Execute separately.
type streamCore struct {
	s    *trace.Stream
	c    *uarch.Core
	buf  []trace.Instruction
	part *nested
}

func newStreamCore(tr *trace.Trace, cfg dataset.Config, mode uarch.Mode, part *nested) *streamCore {
	return &streamCore{s: trace.NewStream(tr), c: uarch.NewCoreInMode(cfg.Core, mode),
		buf: make([]trace.Instruction, cfg.Interval), part: part}
}

// step generates and executes up to n instructions and reports how many.
func (sc *streamCore) step(n int) int {
	t0 := time.Now()
	k := sc.s.Read(sc.buf[:n])
	t1 := time.Now()
	if k == 0 {
		sc.part.gen += t1.Sub(t0).Seconds()
		return 0
	}
	sc.c.Execute(sc.buf[:k])
	t2 := time.Now()
	sc.part.gen += t1.Sub(t0).Seconds()
	sc.part.exec += t2.Sub(t1).Seconds()
	sc.part.genInstrs += int64(k)
	sc.part.batches = append(sc.part.batches, t2.Sub(t1).Seconds())
	return k
}

func (sc *streamCore) warmup(instrs int) {
	for done := 0; done < instrs; {
		n := instrs - done
		if n > len(sc.buf) {
			n = len(sc.buf)
		}
		k := sc.step(n)
		if k == 0 {
			return
		}
		done += k
	}
}

// subRecord repeats dataset recording of one trace in one mode (warm-up,
// then one ExtractBase per full interval) with each layer timed.
func subRecord(tr *trace.Trace, cfg dataset.Config, mode uarch.Mode, part *nested) {
	sc := newStreamCore(tr, cfg, mode, part)
	sc.warmup(cfg.Warmup)
	prev := sc.c.Events()
	for {
		k := sc.step(cfg.Interval)
		if k < cfg.Interval {
			return
		}
		cur := sc.c.Events()
		t0 := time.Now()
		telemetry.ExtractBase(cur.Sub(prev))
		part.expand += time.Since(t0).Seconds()
		prev = cur
	}
}

// appliedMode is the configuration a deployment ran window w in: windows
// 0 and 1 precede the first decision; later ones read the applied
// configuration of the decision made two windows earlier.
func appliedMode(res *core.GuardedDeploymentResult, w int) uarch.Mode {
	if w >= 2 && w-2 < len(res.Eff) && res.Eff[w-2] == 1 {
		return uarch.ModeLowPower
	}
	return uarch.ModeHighPerf
}

// snapshotWindow times the controller's view of one window: one
// CounterSet.Snapshot of the aggregate plus one per interval.
func snapshotWindow(g *core.GatingController, window [][]float64, rng *rand.Rand, part *nested) {
	t0 := time.Now()
	g.Counters.Snapshot(telemetry.Aggregate(window), true, rng)
	for _, b := range window {
		g.Counters.Snapshot(b, true, rng)
	}
	part.snapshot += time.Since(t0).Seconds()
}

// subDeploy re-executes one exact deployment's instruction stream under
// its applied mode schedule and fault derates, timing Stream.Read,
// Core.Execute, telemetry extraction/expansion and the per-window counter
// snapshots.
func subDeploy(g *core.GatingController, tr *trace.Trace, ref *dataset.TraceTelemetry, cfg dataset.Config,
	opts core.DeployOptions, res *core.GuardedDeploymentResult, part *nested) {
	k := g.Granularity / g.Interval
	nWindows := ref.Intervals() / k
	ti := opts.Injector.ForTrace(tr.Seed)
	rng := rand.New(rand.NewSource(tr.Seed))
	sc := newStreamCore(tr, cfg, uarch.ModeHighPerf, part)
	sc.warmup(cfg.Warmup)
	prev := sc.c.Events()
	window := make([][]float64, 0, k)
	gidx := 0
	for w := 0; w < nWindows; w++ {
		sc.c.SetMode(appliedMode(res, w))
		window = window[:0]
		for i := 0; i < k; i++ {
			if ti != nil {
				sc.c.SetMemDerate(ti.MemDerate(gidx))
			}
			if sc.step(g.Interval) == 0 {
				break
			}
			cur := sc.c.Events()
			t0 := time.Now()
			base := telemetry.ExtractBase(cur.Sub(prev))
			telemetry.BaseToEvents(base)
			part.expand += time.Since(t0).Seconds()
			prev = cur
			window = append(window, base)
			gidx++
		}
		if len(window) < k {
			return
		}
		if w+2 < nWindows {
			snapshotWindow(g, window, rng, part)
		}
	}
}

// subReplay repeats one surrogate replay's per-interval work under its
// applied mode schedule: the interval model (Splice + residual over
// Features) and telemetry expansion, plus the per-window snapshots.
func subReplay(m *surrogate.Model, g *core.GatingController, tr *trace.Trace, ref *dataset.TraceTelemetry,
	cfg dataset.Config, opts core.DeployOptions, res *core.GuardedDeploymentResult, part *nested) {
	k := g.Granularity / g.Interval
	nWindows := ref.Intervals() / k
	ti := opts.Injector.ForTrace(tr.Seed)
	rng := rand.New(rand.NewSource(tr.Seed))
	window := make([][]float64, 0, k)
	mode, since := uarch.ModeHighPerf, core.SteadySinceSwitch
	gidx := 0
	for w := 0; w < nWindows; w++ {
		if m := appliedMode(res, w); m != mode {
			mode, since = m, 0
		}
		window = window[:0]
		for i := 0; i < k; i++ {
			derate := 1.0
			if ti != nil {
				derate = ti.MemDerate(gidx)
			}
			rec, other := ref.HighPerf[gidx], ref.LowPower[gidx]
			if mode == uarch.ModeLowPower {
				rec, other = other, rec
			}
			t0 := time.Now()
			base := surrogate.Splice(rec.Base, mode, derate, since, cfg.Core)
			m.Residual(surrogate.Features(rec.Base, mode == uarch.ModeLowPower, since, other.IPC/rec.IPC, derate))
			t1 := time.Now()
			telemetry.BaseToEvents(base)
			t2 := time.Now()
			part.interval += t1.Sub(t0).Seconds()
			part.expand += t2.Sub(t1).Seconds()
			window = append(window, base)
			if since < core.SteadySinceSwitch {
				since++
			}
			gidx++
		}
		if w+2 < nWindows {
			snapshotWindow(g, window, rng, part)
		}
	}
}
