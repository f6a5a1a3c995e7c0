package obs

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestBenchRoundTrip(t *testing.T) {
	b := NewBench("ctrlplane-soak", map[string]any{"backend": "forest"})
	b.Set("machines_per_sec", 658.4, "1/s", GateHigherBetter, TolTiming)
	b.Set("ticks", 13, "", GateExact, TolCounter)
	b.Verdict("bad_caught", true)
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_ctrlplane-soak.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	read, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseBench(read)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != BenchSchema || got.Name != "ctrlplane-soak" {
		t.Fatalf("header lost: %+v", got)
	}
	if !reflect.DeepEqual(got.Metrics, b.Metrics) {
		t.Fatalf("metrics lost:\n%+v\nvs\n%+v", got.Metrics, b.Metrics)
	}
	if d, _ := got.Detail.(map[string]any); d["backend"] != "forest" {
		t.Fatalf("detail lost: %+v", got.Detail)
	}
	again, err := got.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("re-encoding differs:\n%s\nvs\n%s", again, data)
	}
}

func TestBenchRejectsMalformed(t *testing.T) {
	const good = `{"schema":"clustergate-bench/v1","name":"x","metrics":{"k":{"value":1,"gate":"exact","tol":"counter"}}}`
	if _, err := ParseBench([]byte(good)); err != nil {
		t.Fatalf("well-formed envelope rejected: %v", err)
	}
	for _, tc := range []struct{ name, doc, want string }{
		{"missing value", `{"schema":"clustergate-bench/v1","name":"x","metrics":{"k":{"gate":"exact","tol":"counter"}}}`, "missing value"},
		{"negative higher_better", `{"schema":"clustergate-bench/v1","name":"x","metrics":{"k":{"value":-1,"gate":"higher_better","tol":"timing"}}}`, "negative value"},
		{"negative lower_better", `{"schema":"clustergate-bench/v1","name":"x","metrics":{"k":{"value":-1,"gate":"lower_better","tol":"timing"}}}`, "negative value"},
		{"negative verdict", `{"schema":"clustergate-bench/v1","name":"x","metrics":{"k":{"value":-1,"gate":"verdict","tol":"metric"}}}`, "want 0 or 1"},
		{"fraction above 1", `{"schema":"clustergate-bench/v1","name":"x","metrics":{"k":{"value":1.5,"unit":"fraction","gate":"higher_better","tol":"metric"}}}`, "outside [0, 1]"},
		{"negative fraction", `{"schema":"clustergate-bench/v1","name":"x","metrics":{"k":{"value":-0.1,"unit":"fraction","gate":"exact","tol":"metric"}}}`, "outside [0, 1]"},
		{"unknown gate", `{"schema":"clustergate-bench/v1","name":"x","metrics":{"k":{"value":1,"gate":"timing","tol":"counter"}}}`, "unknown gate"},
		{"unknown tol", `{"schema":"clustergate-bench/v1","name":"x","metrics":{"k":{"value":1,"gate":"exact","tol":"loose"}}}`, "unknown tol"},
		{"verdict not 0/1", `{"schema":"clustergate-bench/v1","name":"x","metrics":{"k":{"value":0.5,"gate":"verdict","tol":"metric"}}}`, "want 0 or 1"},
		{"wrong schema", `{"schema":"uarch-bench/v1","name":"x","metrics":{"k":{"value":1,"gate":"exact","tol":"counter"}}}`, "schema"},
		{"no name", `{"schema":"clustergate-bench/v1","metrics":{"k":{"value":1,"gate":"exact","tol":"counter"}}}`, "missing name"},
		{"no metrics", `{"schema":"clustergate-bench/v1","name":"x","metrics":{}}`, "no metrics"},
	} {
		_, err := ParseBench([]byte(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	// NaN cannot be spelled in JSON, so the writer is where it must stop.
	b := NewBench("x", nil)
	b.Set("k", math.NaN(), "", GateExact, TolMetric)
	if _, err := b.Marshal(); err == nil || !strings.Contains(err.Error(), "not a finite number") {
		t.Fatalf("NaN value marshalled: %v", err)
	}
}

// A signed outcome, such as a PPW gain that fell below its reference, is a
// valid exact or warn metric.
func TestBenchAcceptsSignedOutcomes(t *testing.T) {
	b := NewBench("x", nil)
	b.Set("ppw.gain", -0.012, "", GateExact, TolMetric)
	b.Set("speedup.delta", -3, "", GateWarn, TolTiming)
	if _, err := b.Marshal(); err != nil {
		t.Fatalf("signed exact/warn metrics rejected: %v", err)
	}
}
