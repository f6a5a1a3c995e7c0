package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
)

// BenchSchema identifies the shared bench envelope every BENCH_<name>.json
// artifact is written in.
const BenchSchema = "clustergate-bench/v1"

// Gate is how a bench metric is compared against its baseline.
type Gate string

// The gates a bench metric can declare.
const (
	// GateExact flags drift beyond tolerance in either direction.
	GateExact Gate = "exact"
	// GateHigherBetter flags a drop beyond tolerance; gains never flag.
	GateHigherBetter Gate = "higher_better"
	// GateLowerBetter flags a rise beyond tolerance; drops never flag.
	GateLowerBetter Gate = "lower_better"
	// GateVerdict holds a 0/1 outcome and flags a 1 that became 0.
	GateVerdict Gate = "verdict"
	// GateWarn reports drift beyond tolerance but never fails.
	GateWarn Gate = "warn"
)

// Tol names the tolerance class a metric is compared at. A differ maps each
// class to one configured tolerance: timing values are noisy wall-clock
// figures, counters are deterministic event counts, and metrics are
// deterministic experiment outcomes.
type Tol string

// The tolerance classes a bench metric can declare.
const (
	TolTiming  Tol = "timing"
	TolCounter Tol = "counter"
	TolMetric  Tol = "metric"
)

// UnitFraction is the unit of a metric that is a share of a whole, such as
// a completion rate; Validate holds its value within [0, 1].
const UnitFraction = "fraction"

// BenchMetric is one measured value and how to gate it. Value is a pointer
// so a document that omits it is rejected rather than read as zero.
type BenchMetric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit,omitempty"`
	Gate  Gate     `json:"gate"`
	Tol   Tol      `json:"tol"`
}

// Bench is the self-describing bench envelope: a flat map of metrics, each
// declaring its own gate and tolerance class, so one differ and one
// validator serve every artifact. Detail carries an optional ungated dump
// (a study's full result table) for downstream tooling.
type Bench struct {
	Schema  string                 `json:"schema"`
	Name    string                 `json:"name"`
	Metrics map[string]BenchMetric `json:"metrics"`
	Detail  any                    `json:"detail,omitempty"`
}

// NewBench returns an empty envelope for the named artifact.
func NewBench(name string, detail any) *Bench {
	return &Bench{Schema: BenchSchema, Name: name, Metrics: map[string]BenchMetric{}, Detail: detail}
}

// Set declares one metric.
func (b *Bench) Set(key string, v float64, unit string, gate Gate, tol Tol) {
	b.Metrics[key] = BenchMetric{Value: &v, Unit: unit, Gate: gate, Tol: tol}
}

// Verdict declares a pass/fail outcome as a 0/1 verdict metric.
func (b *Bench) Verdict(key string, ok bool) {
	v := 0.0
	if ok {
		v = 1
	}
	b.Set(key, v, "", GateVerdict, TolMetric)
}

// Validate checks the envelope: the schema tag, a name, and at least one
// metric, each with a present, finite value, a known gate and tolerance
// class, a 0 or 1 value when it is a verdict, and a value within [0, 1]
// when its unit is UnitFraction. Exact and warn metrics may be signed (a
// gain over a reference can fall below zero); the one-sided gates compare
// relative change, which a negative value would invert, so they require a
// non-negative value.
func (b *Bench) Validate() error {
	if b.Schema != BenchSchema {
		return fmt.Errorf("schema %q, want %q", b.Schema, BenchSchema)
	}
	if b.Name == "" {
		return errors.New("missing name")
	}
	if len(b.Metrics) == 0 {
		return errors.New("no metrics")
	}
	keys := make([]string, 0, len(b.Metrics))
	for k := range b.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := b.Metrics[k]
		if m.Value == nil {
			return fmt.Errorf("metric %q: missing value", k)
		}
		v := *m.Value
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("metric %q: value %v is not a finite number", k, v)
		case m.Unit == UnitFraction && (v < 0 || v > 1):
			return fmt.Errorf("metric %q: fraction %v outside [0, 1]", k, v)
		}
		switch m.Gate {
		case GateExact, GateWarn:
		case GateHigherBetter, GateLowerBetter:
			if v < 0 {
				return fmt.Errorf("metric %q: negative value %v under one-sided gate %s", k, v, m.Gate)
			}
		case GateVerdict:
			if v != 0 && v != 1 {
				return fmt.Errorf("metric %q: verdict value %v, want 0 or 1", k, v)
			}
		default:
			return fmt.Errorf("metric %q: unknown gate %q", k, m.Gate)
		}
		switch m.Tol {
		case TolTiming, TolCounter, TolMetric:
		default:
			return fmt.Errorf("metric %q: unknown tol %q", k, m.Tol)
		}
	}
	return nil
}

// Marshal validates the envelope and renders it as indented JSON with a
// trailing newline.
func (b *Bench) Marshal() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ParseBench decodes and validates an envelope.
func ParseBench(data []byte) (*Bench, error) {
	var b Bench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}
