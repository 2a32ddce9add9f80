package harness

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"github.com/bingo-search/bingo/internal/metrics"
)

// cpuSeconds returns the process's user+system CPU time so far. The load
// generator, the coordinator and the shard servers all live in this one
// process, so every per-CPU-second metric charges all of them.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns VmHWM, the process's peak resident set, in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// gcCPUShare returns the share of the process's available CPU time the
// garbage collector has used since start, as the runtime estimates it.
func gcCPUShare() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.GCCPUFraction
}

// mallocs returns the cumulative count of heap objects allocated. It stops
// the world, which is why the staged replays call it only at stage
// boundaries, outside every span.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// dirBytes sums the sizes of the regular files under dir whose names match
// keep (every file when keep is nil).
func dirBytes(dir string, keep func(name string) bool) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() || (keep != nil && !keep(d.Name())) {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("sizing %s: %w", dir, err)
	}
	return total, nil
}

// isSegment matches the tiered store's segment files.
func isSegment(name string) bool { return strings.HasSuffix(name, ".bsg") }

// registry is a point-in-time reading of the counters and histograms the
// program already exports through metrics.Default(). The benchmark only
// ever looks at differences between two readings taken around a phase.
type registry struct {
	counters map[string]int64
	histSum  map[string]int64
	histN    map[string]int64
}

// The series the per-layer metrics are derived from.
var (
	regCounters = []string{
		"dns_cache_hits_total", "dns_cache_misses_total",
		"fetch_requests_total", "fetch_retries_total", "fetch_body_bytes_total",
		"crawler_pages_stored_total", "crawler_pages_positive_total",
		"crawler_worker_busy_nanos_total", "crawler_worker_idle_nanos_total",
		"engine_retrains_total",
		"frontier_pushed_total", "frontier_dropped_full_total", "frontier_dropped_depth_total",
		"wal_bytes_total", "segment_freezes_total", "segment_frozen_docs_total",
		"segment_compaction_runs_total", "segment_compaction_bytes_read_total",
		"segment_compaction_bytes_written_total", "wal_replay_records_total",
		"search_snapshot_rebuilds_total", "search_shard_docs_rebuilt_total",
		"search_stale_serves_total",
		"serve_search_requests_total", "serve_search_shed_total",
		"servecache_hits_total", "servecache_misses_total",
		"servecache_evictions_total", "servecache_collapsed_total",
		"admit_admitted_total", "admit_shed_total",
		"rpc_client_requests_total", "rpc_client_retries_total", "rpc_client_hedges_total",
		"coord_queries_total", "coord_degraded_total",
	}
	regHistograms = []string{
		"dns_lookup_nanos", "engine_retrain_nanos", "wal_fsync_nanos",
		"search_snapshot_build_nanos", "admit_wait_nanos", "store_flush_nanos",
	}
)

func readRegistry() registry {
	r := registry{
		counters: make(map[string]int64, len(regCounters)),
		histSum:  make(map[string]int64, len(regHistograms)),
		histN:    make(map[string]int64, len(regHistograms)),
	}
	reg := metrics.Default()
	for _, n := range regCounters {
		r.counters[n] = reg.Counter(n).Value()
	}
	for _, n := range regHistograms {
		s := reg.Histogram(n).Snapshot()
		r.histSum[n], r.histN[n] = s.Sum, s.Count
	}
	return r
}

// since returns the change from before to r.
func (r registry) since(before registry) registry { return r.combine(before, -1) }

// plus returns the sum of two changes.
func (r registry) plus(o registry) registry { return r.combine(o, +1) }

// combine returns r + sign·o, series by series.
func (r registry) combine(o registry, sign int64) registry {
	d := registry{
		counters: make(map[string]int64, len(r.counters)),
		histSum:  make(map[string]int64, len(r.histSum)),
		histN:    make(map[string]int64, len(r.histN)),
	}
	for n, v := range r.counters {
		d.counters[n] = v + sign*o.counters[n]
	}
	for n, v := range r.histSum {
		d.histSum[n] = v + sign*o.histSum[n]
		d.histN[n] = r.histN[n] + sign*o.histN[n]
	}
	return d
}

// c returns a counter delta as a float.
func (r registry) c(name string) float64 { return float64(r.counters[name]) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
