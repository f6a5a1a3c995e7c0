package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/durable"
	"clustergate/internal/ml"
	"clustergate/internal/ml/linear"
	"clustergate/internal/telemetry"
)

// sealTestImage writes a small serialisable controller image to dir and
// returns its path (training through -train is far too slow for a unit
// test, so the image is sealed directly through the same core API the
// -train path uses).
func sealTestImage(t *testing.T, dir string) string {
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
		W: make([]float64, n), B: -4,
		Scaler: &ml.Scaler{Mean: make([]float64, n), Std: std},
	}
	cfg := dataset.DefaultConfig()
	g := &core.GatingController{
		Name:     "fwtool-test",
		HighPerf: core.PointPredictor{M: lg}, LowPower: core.PointPredictor{M: lg},
		ThresholdHigh: 0.5, ThresholdLow: 0.5,
		Interval: cfg.Interval, Granularity: 2 * cfg.Interval,
		Counters: cs, Columns: cols,
		SLA: dataset.SLA{PSLA: 0.9},
	}
	path := filepath.Join(dir, "fw.img")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveController(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// fwtool drives run() the way main does and returns stdout.
func fwtool(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

// TestCorruptRoundTripCLI is the deployment-integrity story at the CLI
// layer: a sealed image inspects clean; every seeded corruption of it is
// rejected at load by the CRC envelope; and the only way to load a
// corrupted image is the explicit -no-verify escape hatch.
func TestCorruptRoundTripCLI(t *testing.T) {
	dir := t.TempDir()
	img := sealTestImage(t, dir)

	out, err := fwtool(t, "-info", img)
	if err != nil {
		t.Fatalf("-info on a clean image: %v", err)
	}
	if !strings.Contains(out, "CRC ok") || !strings.Contains(out, "budget check:    ok") {
		t.Errorf("-info output missing integrity/budget confirmation:\n%s", out)
	}

	// Every seeded corruption must be rejected by the verified path; at
	// least one must be decodable enough for -no-verify to load it (the
	// demonstration that the escape hatch really bypasses the envelope).
	loadedUnverified := false
	for seed := 1; seed <= 200; seed++ {
		bad := filepath.Join(dir, fmt.Sprintf("bad-%d.img", seed))
		out, err := fwtool(t, "-corrupt", img, "-flips", "3", "-seed", fmt.Sprint(seed), "-o", bad)
		if err != nil {
			t.Fatalf("seed %d: -corrupt: %v", seed, err)
		}
		if !strings.Contains(out, "flipped bits") {
			t.Fatalf("seed %d: -corrupt output %q", seed, out)
		}
		if _, err := fwtool(t, "-info", bad); !errors.Is(err, durable.ErrCorrupt) {
			t.Errorf("seed %d: verified load of a corrupted image returned %v, want ErrCorrupt", seed, err)
		}
		if loadedUnverified {
			os.Remove(bad)
			continue
		}
		if out, err := fwtool(t, "-info", bad, "-no-verify"); err == nil {
			if !strings.Contains(out, "SKIPPED") {
				t.Errorf("seed %d: -no-verify load did not report the skipped check:\n%s", seed, out)
			}
			loadedUnverified = true
		}
		os.Remove(bad)
	}
	if !loadedUnverified {
		t.Error("no seed in 1..200 produced a corrupted image that -no-verify could load")
	}

	if _, err := fwtool(t); !errors.Is(err, errUsage) {
		t.Errorf("no command returned %v, want errUsage", err)
	}
}
