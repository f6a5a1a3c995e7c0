package clustergate

import (
	"os/exec"
	"strings"
	"testing"

	"clustergate/internal/obs"
)

// TestUarchBenchJSONDeclarations feeds scripts/uarch-bench-json.go one
// BenchmarkUarch line and pins each metric's declared gate and tolerance
// class, so the BENCH_uarch.json gates cannot loosen unnoticed.
func TestUarchBenchJSONDeclarations(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	cmd := exec.Command(gobin, "run", "scripts/uarch-bench-json.go")
	cmd.Stdin = strings.NewReader("BenchmarkUarchExecuteHighPerf-2 \t 5\t 2000000 ns/op\t 4.0e+07 instrs/s\t 25.0 ns/instr\t 16 B/op\t 1 allocs/op\n")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("uarch-bench-json: %v", err)
	}
	b, err := obs.ParseBench(out)
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		gate obs.Gate
		tol  obs.Tol
	}
	want := map[string]decl{
		"iterations":           {obs.GateExact, obs.TolCounter},
		"ns_per_op":            {obs.GateLowerBetter, obs.TolTiming},
		"ns_per_instr":         {obs.GateLowerBetter, obs.TolTiming},
		"instructions_per_sec": {obs.GateWarn, obs.TolTiming},
		"bytes_per_op":         {obs.GateExact, obs.TolCounter},
		"allocs_per_op":        {obs.GateExact, obs.TolCounter},
	}
	if b.Name != "uarch" || len(b.Metrics) != len(want) {
		t.Fatalf("envelope %q with %d metrics, want uarch with %d", b.Name, len(b.Metrics), len(want))
	}
	for k, d := range want {
		m, ok := b.Metrics["UarchExecuteHighPerf."+k]
		if !ok {
			t.Errorf("metric UarchExecuteHighPerf.%s missing", k)
			continue
		}
		if m.Gate != d.gate || m.Tol != d.tol {
			t.Errorf("%s declared %s/%s, want %s/%s", k, m.Gate, m.Tol, d.gate, d.tol)
		}
	}
}
