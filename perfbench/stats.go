package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"repro/internal/hostid"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
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

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// resetPeakRSS returns freed heap to the kernel and lowers the process's
// peak resident mark (VmHWM) to its current resident set, so peakRSSMB
// covers only what follows.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak memory: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set in MiB since resetPeakRSS.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// rtSample is one reading of the Go runtime counters the runtime layer
// reports as deltas over a measured window.
type rtSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	gcCycles        uint64
	schedLat        *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r rtSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[3].Value.Uint64()
	}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		r.schedLat = s[4].Value.Float64Histogram()
	}
	return r
}

// runtimeLayer derives the runtime layer's metrics from two samples taken
// around a window of ops operations.
func runtimeLayer(a, b rtSample, ops int) map[string]float64 {
	n := math.Max(float64(ops), 1)
	return map[string]float64{
		"runtime.gc_cpu_fraction":      ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
		"runtime.alloc_bytes_per_op":   float64(b.allocBytes-a.allocBytes) / n,
		"runtime.gc_cycles_per_1k_ops": float64(b.gcCycles-a.gcCycles) * 1000 / n,
		"runtime.sched_wait_p90_us":    histQuantile(a.schedLat, b.schedLat, 0.9) * 1e6,
	}
}

// histQuantile is the q-quantile of the difference of two cumulative
// histograms, read at the upper edge of the bucket it falls in.
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if cum >= want {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// hostMeta is the host description written into every result.
func hostMeta() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        hostid.CPUModel(),
	}
}
