package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// failedLatency is the latency recorded for a failed batch or cell: it
// ranks above every success, so a failure misses any latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of lats;
// failures (failedLatency) rank worst. lats is sorted in place.
func percentile(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, k int) bool { return lats[i] < lats[k] })
	rank := int(math.Ceil(p * float64(len(lats))))
	return lats[min(max(rank, 1), len(lats))-1]
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

// sliceMedians takes a window cut into slices: lats[k] holds the
// latencies of the batches sent in slice k (failedLatency for a failed
// one) and lens[k] is the slice's length. It returns the medians over
// the slices of each slice's rate of acknowledged batches per second and
// of its p50 and p90 latency. A slice in which nothing was sent has a
// rate of 0 and no percentiles, so it counts only toward the rate.
func sliceMedians(lats [][]time.Duration, lens []time.Duration) (rate float64, p50, p90 time.Duration) {
	var rates []float64
	var p50s, p90s []time.Duration
	for k, ls := range lats {
		acked := 0
		for _, l := range ls {
			if l != failedLatency {
				acked++
			}
		}
		rates = append(rates, ratio(float64(acked), lens[k].Seconds()))
		if len(ls) > 0 {
			p50s = append(p50s, percentile(ls, 0.50))
			p90s = append(p90s, percentile(ls, 0.90))
		}
	}
	sort.Float64s(rates)
	if len(rates) > 0 {
		rate = rates[(len(rates)+1)/2-1]
	}
	return rate, median(p50s), median(p90s)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fsyncProbe times 256 appends of 4 KiB, each followed by an fsync, in
// dir and returns the median. Taken just before a window, it tells disk
// drift apart from regressions on a shared device.
func fsyncProbe(dir string) (time.Duration, error) {
	name := filepath.Join(dir, "fsync-probe")
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	defer os.Remove(name)
	defer f.Close()
	buf := make([]byte, 4096)
	ds := make([]time.Duration, 256)
	for i := range ds {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0)
	}
	return median(ds), nil
}

// fsTypes names the statfs magic numbers a WAL directory is likely on.
var fsTypes = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsTypes[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// envRecord is what a run records about where it ran.
type envRecord struct {
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	WALDir       string  `json:"wal_dir"`
	WALFSType    string  `json:"wal_fs_type"`
	WALFsync     string  `json:"wal_fsync"`
	FsyncProbeUs float64 `json:"fsync_probe_us"`
}

// environment records the process and the WAL directory's device,
// probing fsync there. fsync says how the workload's WAL syncs: "real",
// "elided" or "none" (no WAL).
func environment(walDir, fsync string) (envRecord, error) {
	probe, err := fsyncProbe(walDir)
	if err != nil {
		return envRecord{}, fmt.Errorf("fsync probe: %w", err)
	}
	return envRecord{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		WALDir:       walDir,
		WALFSType:    fsType(walDir),
		WALFsync:     fsync,
		FsyncProbeUs: float64(probe) / 1e3,
	}, nil
}

// runtimeSample reads the Go runtime counters the trace reports.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
	}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
		allocBytes: a.allocBytes - b.allocBytes,
	}
}
