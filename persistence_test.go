package clustergate

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"clustergate/internal/core"
	"clustergate/internal/ctrlplane"
	"clustergate/internal/dataset"
	"clustergate/internal/durable"
	"clustergate/internal/experiments"
	"clustergate/internal/fleet"
	"clustergate/internal/ml"
	"clustergate/internal/ml/linear"
	"clustergate/internal/obs"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
)

// TestEveryStoreDetectsByteFlip is the persistence contract across all
// four durable stores: after flipping any single byte of a file the store
// wrote, its reader notices and reacts the way the store promises — the
// firmware load fails with durable.ErrCorrupt, the experiment checkpoint
// errors, the telemetry cache misses and counts a discard, and the
// control-plane checkpoint starts fresh and counts an ignore.
//
// Every byte offset is checked, except in the telemetry cache: it
// re-simulates on each miss, so it is checked at every header byte and at
// evenly spaced payload offsets. The envelope's detection of every
// single-bit error is proven exhaustively in internal/durable.
func TestEveryStoreDetectsByteFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("store simulation skipped in -short mode")
	}
	img := constController(t)
	cfg := dataset.DefaultConfig()
	spec := trace.BuildSPEC(trace.SPECConfig{TracesPerWorkload: 1, InstrsPerTrace: 100_000, Seed: 13})
	sub := &trace.Corpus{Name: "spec-sub", Traces: spec.Traces[:2]}
	wl := fleet.Workload{Traces: sub.Traces, Tel: dataset.SimulateCorpus(sub, cfg), Cfg: cfg, PM: power.DefaultModel()}
	campaign := ctrlplane.Config{
		Name: "flip", Machines: 40, Shards: 2, Seed: 3, FlashPerTick: 10,
		Gate: fleet.GatePolicy{MaxCRCRejectRate: 1, MaxTripsPerMachine: 1e9, MaxSLARate: 1, MaxMisgateRate: 1},
	}
	corpus := trace.BuildHDTR(trace.HDTRConfig{Apps: 2, MeanTracesPerApp: 1, InstrsPerTrace: 60_000, Seed: 9})

	stores := []struct {
		name string
		// write creates the store under dir and returns its file.
		write func(dir string) string
		// detected opens the flipped store and reports whether its reader
		// reacted as promised.
		detected func(dir, path string) error
		// exhaustive checks every byte offset instead of a sample.
		exhaustive bool
	}{
		{
			name: "firmware image",
			write: func(dir string) string {
				path := filepath.Join(dir, "fw.img")
				if err := os.WriteFile(path, img, 0o644); err != nil {
					t.Fatal(err)
				}
				return path
			},
			detected: func(_, path string) error {
				f, err := os.Open(path)
				if err != nil {
					return err
				}
				defer f.Close()
				if _, err := core.LoadController(f); !errors.Is(err, durable.ErrCorrupt) {
					return fmt.Errorf("load returned %v, want durable.ErrCorrupt", err)
				}
				return nil
			},
			exhaustive: true,
		},
		{
			name: "experiment checkpoint",
			write: func(dir string) string {
				c, err := experiments.OpenCheckpoint(dir, 1, "quick")
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Save(experiments.CheckpointEntry{Name: "fig7", Output: "row\n", Metrics: map[string]float64{"m": 1}}); err != nil {
					t.Fatal(err)
				}
				return filepath.Join(dir, "checkpoint.ckpt")
			},
			detected: func(dir, _ string) error {
				if _, err := experiments.OpenCheckpoint(dir, 1, "quick"); !errors.Is(err, durable.ErrCorrupt) {
					return fmt.Errorf("open returned %v, want durable.ErrCorrupt", err)
				}
				return nil
			},
			exhaustive: true,
		},
		{
			name: "telemetry cache",
			write: func(dir string) string {
				if _, err := dataset.SimulateCorpusCached(corpus, cfg, dir); err != nil {
					t.Fatal(err)
				}
				return onlyFile(t, dir)
			},
			detected: func(dir, _ string) error {
				before := dataset.ReadCacheStats()
				tel, err := dataset.SimulateCorpusCached(corpus, cfg, dir)
				after := dataset.ReadCacheStats()
				switch {
				case err != nil:
					return err
				case len(tel) != len(corpus.Traces):
					return fmt.Errorf("%d traces after a discard, want %d", len(tel), len(corpus.Traces))
				case after.Hits != before.Hits || after.Misses != before.Misses+1 || after.Discarded != before.Discarded+1:
					return fmt.Errorf("cache stats %+v -> %+v, want one more miss and discard", before, after)
				}
				return nil
			},
		},
		{
			name: "ctrlplane checkpoint",
			write: func(dir string) string {
				c := campaign
				c.CheckpointPath = filepath.Join(dir, "campaign.ckpt")
				s, err := ctrlplane.New(c, img, wl)
				if err != nil {
					t.Fatal(err)
				}
				s.Tick()
				s.Tick()
				s.Close()
				return c.CheckpointPath
			},
			detected: func(_, path string) error {
				c := campaign
				c.CheckpointPath = path
				before := obs.CounterValue("ctrlplane.checkpoint.ignored")
				s, err := ctrlplane.New(c, img, wl)
				if err != nil {
					return err
				}
				s.Close()
				if n := obs.CounterValue("ctrlplane.checkpoint.ignored") - before; n != 1 {
					return fmt.Errorf("ignored counter rose by %d, want 1", n)
				}
				return nil
			},
			exhaustive: true,
		},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			dir := t.TempDir()
			path := st.write(dir)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, off := range flipOffsets(len(orig), st.exhaustive) {
				flipped := append([]byte(nil), orig...)
				flipped[off] ^= 0xff
				if err := os.WriteFile(path, flipped, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := st.detected(dir, path); err != nil {
					t.Fatalf("byte %d of %d flipped: %v", off, len(orig), err)
				}
			}
		})
	}
}

// flipOffsets is every offset of an n-byte file, or every envelope header
// byte plus 48 evenly spaced payload offsets (the last byte included).
func flipOffsets(n int, exhaustive bool) []int {
	const header, samples = 13, 48
	var offs []int
	for i := 0; i < n && (exhaustive || i < header); i++ {
		offs = append(offs, i)
	}
	if !exhaustive {
		for k := 1; k <= samples; k++ {
			offs = append(offs, header+(n-1-header)*k/samples)
		}
	}
	return offs
}

// onlyFile returns the single file in dir.
func onlyFile(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir holds %d entries (%v), want 1", len(entries), err)
	}
	return filepath.Join(dir, entries[0].Name())
}

// constController seals a never-gating logistic controller as a firmware
// image.
func constController(t *testing.T) []byte {
	t.Helper()
	cs := telemetry.NewStandardCounterSet()
	cols, err := core.ColumnsByName(cs, telemetry.Table4Names())
	if err != nil {
		t.Fatal(err)
	}
	std := make([]float64, len(cols))
	for i := range std {
		std[i] = 1
	}
	lg := &linear.Logistic{W: make([]float64, len(cols)), B: -4,
		Scaler: &ml.Scaler{Mean: make([]float64, len(cols)), Std: std}}
	cfg := dataset.DefaultConfig()
	g := &core.GatingController{
		Name:     "flip",
		HighPerf: core.PointPredictor{M: lg}, LowPower: core.PointPredictor{M: lg},
		ThresholdHigh: 0.5, ThresholdLow: 0.5,
		Interval: cfg.Interval, Granularity: 2 * cfg.Interval,
		Counters: cs, Columns: cols, SLA: dataset.SLA{PSLA: 0.9},
	}
	var buf bytes.Buffer
	if err := core.SaveController(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
