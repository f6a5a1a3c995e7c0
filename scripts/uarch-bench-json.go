//go:build ignore

// uarch-bench-json converts `go test -bench 'BenchmarkUarch' -benchmem`
// output on stdin into BENCH_uarch.json on stdout, a clustergate-bench/v1
// envelope, so check.sh records the cycle-model's throughput trajectory
// alongside the other BENCH files and obsdiff gates it like them. Run it as
//
//	go test -run '^$' -bench 'BenchmarkUarch' -benchmem . | go run scripts/uarch-bench-json.go
//
// It validates as it parses: every benchmark line must carry the custom
// instrs/s and ns/instr metrics plus allocs/op, and at least one benchmark
// must be present, otherwise it exits nonzero without emitting anything.
package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"clustergate/internal/obs"
)

type bench struct {
	Iterations     float64
	NsPerOp        float64
	InstrsPerSec   float64
	NsPerInstr     float64
	BytesPerOp     float64
	AllocsPerOp    float64
	HasInstrs      bool
	HasNsPerInstr  bool
	HasAllocsPerOp bool
}

func main() {
	out := obs.NewBench("uarch", nil)
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// Strip the -GOMAXPROCS suffix go test appends on multi-CPU hosts.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		b := &bench{}
		b.Iterations, _ = strconv.ParseFloat(fields[1], 64)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				fail("%s: bad metric value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "instrs/s":
				b.InstrsPerSec = v
				b.HasInstrs = true
			case "ns/instr":
				b.NsPerInstr = v
				b.HasNsPerInstr = true
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
				b.HasAllocsPerOp = true
			}
		}
		if !b.HasInstrs || !b.HasNsPerInstr {
			fail("%s: missing instrs/s or ns/instr custom metrics (stale bench harness?)", name)
		}
		if !b.HasAllocsPerOp {
			fail("%s: missing allocs/op (run with -benchmem)", name)
		}
		// At 0 allocs/op the bench loop itself allocated nothing; a few
		// stray bytes/op are runtime allocations (GC, timer) amortised over
		// the tiny -benchtime 5x sample and flip run to run, which would
		// flake the exact-counter obsdiff gate. Clamp them.
		if b.AllocsPerOp == 0 {
			b.BytesPerOp = 0
		}
		// Time per op and per instruction may not grow past the timing
		// tolerance; allocation and the fixed -benchtime iteration count
		// are deterministic and held exact.
		out.Set(name+".iterations", b.Iterations, "", obs.GateExact, obs.TolCounter)
		out.Set(name+".ns_per_op", b.NsPerOp, "ns", obs.GateLowerBetter, obs.TolTiming)
		out.Set(name+".ns_per_instr", b.NsPerInstr, "ns", obs.GateLowerBetter, obs.TolTiming)
		out.Set(name+".instructions_per_sec", b.InstrsPerSec, "1/s", obs.GateWarn, obs.TolTiming)
		out.Set(name+".bytes_per_op", b.BytesPerOp, "B", obs.GateExact, obs.TolCounter)
		out.Set(name+".allocs_per_op", b.AllocsPerOp, "", obs.GateExact, obs.TolCounter)
	}
	if err := sc.Err(); err != nil {
		fail("reading stdin: %v", err)
	}
	if len(out.Metrics) == 0 {
		fail("no Benchmark lines found on stdin")
	}
	data, err := out.Marshal()
	if err != nil {
		fail("encoding: %v", err)
	}
	if _, err := os.Stdout.Write(data); err != nil {
		fail("writing: %v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "uarch-bench-json: "+format+"\n", args...)
	os.Exit(1)
}
