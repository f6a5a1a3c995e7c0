package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clustergate/internal/obs"
)

// buildDir holds everything a run writes, relative to the checkout root
// (the benchmark's working directory); run.sh builds the binary there too.
const buildDir = ".bench_build"

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// countAbove counts the samples strictly above xs's q-quantile: the
// percentile is worth reporting only with ten samples beyond it.
func countAbove(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// calibrationScore times a fixed integer loop (splitmix64 steps) and
// returns millions of steps per second, best of five, so results from
// different hosts can be normalised against single-core speed.
func calibrationScore() float64 {
	const steps = 1 << 22
	best := math.Inf(1)
	var sink uint64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		x := uint64(rep)
		for i := 0; i < steps; i++ {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			sink ^= z ^ (z >> 31)
		}
		if d := time.Since(t0).Seconds(); d < best {
			best = d
		}
	}
	calibrationSink = sink
	return steps / best / 1e6
}

// calibrationSink keeps the calibration loop from being optimised away.
var calibrationSink uint64

// hostStamp names the host a result came from.
func hostStamp(workers int) string {
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d workers=%d go=%s calibration_msteps_per_s=%.1f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, runtime.Version(), calibrationScore())
}

// digest hashes simulated statistics with SHA-256; floats enter by their
// exact bits, so any change to a statistic changes the digest.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) f(vs ...float64) {
	for _, v := range vs {
		d.u(math.Float64bits(v))
	}
}

func (d *digest) i(vs ...int) {
	for _, v := range vs {
		d.u(uint64(v))
	}
}

func (d *digest) u(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) bytes(b []byte) {
	d.i(len(b))
	d.h.Write(b)
}

func (d *digest) s(vs ...string) {
	for _, v := range vs {
		d.bytes([]byte(v))
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }

// counterDelta is after − before for every counter; gauge peaks
// ("*.peak") are lifetime high-water marks and pass through unchanged.
func counterDelta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		if len(k) > 5 && k[len(k)-5:] == ".peak" {
			out[k] = v
			continue
		}
		out[k] = v - before[k]
	}
	return out
}

// histSum is a histogram's lifetime sample count and total in seconds,
// reconstructed from its snapshot (mean × count, microsecond precision).
func histSum(name string) (count int64, seconds float64) {
	s := obs.NewHistogram(name).Snapshot()
	return s.Count, s.MeanMS * float64(s.Count) / 1e3
}

// stolenSeconds is the cumulative hypervisor steal time of the host's
// CPUs, averaged over CPUs, from /proc/stat (USER_HZ ticks): the wall
// time a process keeping every CPU busy lost to other guests. On a shared
// host it swings by tens of percent from minute to minute, so round and
// setup times are reported net of it. Zero where /proc/stat is missing.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var sum float64
	n := 0
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		v, err := strconv.ParseFloat(f[8], 64)
		if err != nil {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 100
}

// hostTimer measures host time net of steal.
type hostTimer struct {
	t0     time.Time
	stolen float64
}

func startHostTimer() hostTimer { return hostTimer{time.Now(), stolenSeconds()} }

// net returns the host seconds since start, net of steal.
func (h hostTimer) net() float64 {
	wall, stolen := h.elapsed()
	return wall * (1 - stolen)
}

// elapsed returns the raw wall seconds since start and the share of them
// that was stolen.
func (h hostTimer) elapsed() (wall, stolenFrac float64) {
	wall = time.Since(h.t0).Seconds()
	stolen := stolenSeconds() - h.stolen
	if wall <= 0 || stolen <= 0 {
		return wall, 0
	}
	return wall, math.Min(stolen/wall, 0.9)
}
