// Package harness is the body of cmd/bench: the seeded bench world and
// serving corpus, the four workloads, their correctness oracles, the staged
// per-layer replays and the registry deltas. Everything here drives the
// program through the public functions of internal/*; nothing inside the
// program is added or moved for the benchmark's sake.
package harness

import (
	"runtime"
	"time"

	"github.com/bingo-search/bingo/internal/corpus"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	IngestTiered = "ingest-tiered"
	ServeCold    = "serve-cold"
	ServeSharded = "serve-sharded"
	ServeChurn   = "serve-churn"
)

// Workloads lists every workload.
var Workloads = []string{IngestTiered, ServeCold, ServeSharded, ServeChurn}

// Metric describes one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before it counts as a
// regression; per-layer metrics have none.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// EndToEnd is the gated list. It must agree with BENCHMARK.json name for
// name (TestSpecMatchesBenchmarkJSON). Every workload reports every metric:
// each one has a single definition that all four workloads have an instance
// of — see README.md, "What each end-to-end metric means on each workload".
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"pages_per_cpu_s", "pages/s", "higher", 0.25},
	{"write_amp", "ratio", "lower", 0.25},
	{"disk_bytes_per_text_byte", "ratio", "lower", 0.25},
	{"q_per_cpu_s", "q/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// PerLayer is the ungated list, module name = prefix. A metric a workload
// has no instance of (rpc.* on serve-cold, fetch.* on serve-*) reads 0.
var PerLayer = []Metric{
	{"dns.ns_per_lookup", "ns", "lower", 0},
	{"dns.cache_hit_share", "share", "higher", 0},
	{"fetch.ns_per_page", "ns", "lower", 0},
	{"fetch.allocs_per_page", "count", "lower", 0},
	{"fetch.body_bytes_per_page", "bytes", "lower", 0},
	{"fetch.retry_share", "share", "lower", 0},
	{"htmldoc.ns_per_page", "ns", "lower", 0},
	{"htmldoc.allocs_per_page", "count", "lower", 0},
	{"textproc.ns_per_page", "ns", "lower", 0},
	{"textproc.allocs_per_page", "count", "lower", 0},
	{"classify.ns_per_page", "ns", "lower", 0},
	{"classify.allocs_per_page", "count", "lower", 0},
	{"classify.accept_share", "share", "higher", 0},
	{"core.retrains", "count", "lower", 0},
	{"core.retrain_ms", "ms", "lower", 0},
	{"frontier.ns_per_item", "ns", "lower", 0},
	{"frontier.dropped_share", "share", "lower", 0},
	{"crawler.self_ns_per_page", "ns", "lower", 0},
	{"crawler.worker_busy_share", "share", "higher", 0},
	{"store.flush_ns_per_doc", "ns", "lower", 0},
	{"store.flush_allocs_per_doc", "count", "lower", 0},
	{"store.wal_bytes_per_doc", "bytes", "lower", 0},
	{"store.wal_fsyncs", "count", "lower", 0},
	{"store.wal_fsync_ms_sum", "ms", "lower", 0},
	{"store.freezes", "count", "lower", 0},
	{"store.freeze_ns_per_doc", "ns", "lower", 0},
	{"segment.build_bytes_per_doc", "bytes", "lower", 0},
	{"store.compactions", "count", "lower", 0},
	{"store.compact_ns_per_doc", "ns", "lower", 0},
	{"store.compact_bytes_in", "bytes", "lower", 0},
	{"store.compact_bytes_out", "bytes", "lower", 0},
	{"store.reopen_ms", "ms", "lower", 0},
	{"store.wal_replay_records", "count", "lower", 0},
	{"segment.open_ns_per_segment", "ns", "lower", 0},
	{"search.snapshot_build_ms", "ms", "lower", 0},
	{"search.snapshot_rebuilds", "count", "lower", 0},
	{"search.docs_rebuilt_per_flush", "count", "lower", 0},
	{"search.stale_serves", "count", "lower", 0},
	{"search.plan_ns_per_q", "ns", "lower", 0},
	{"search.score_ns_per_q", "ns", "lower", 0},
	{"search.gather_ns_per_q", "ns", "lower", 0},
	{"search.allocs_per_q", "count", "lower", 0},
	{"search.candidates_per_q", "count", "lower", 0},
	{"search.survivors_per_q", "count", "lower", 0},
	{"segment.postings_ns_per_term", "ns", "lower", 0},
	{"segment.termvec_ns_per_doc", "ns", "lower", 0},
	{"serve.http_ns_per_q", "ns", "lower", 0},
	{"serve.handler_self_ns_per_q", "ns", "lower", 0},
	{"serve.parse_ns_per_q", "ns", "lower", 0},
	{"serve.allocs_per_q", "count", "lower", 0},
	{"serve.resp_bytes_per_q", "bytes", "lower", 0},
	{"servecache.hit_share", "share", "higher", 0},
	{"servecache.hit_ns", "ns", "lower", 0},
	{"servecache.miss_overhead_ns", "ns", "lower", 0},
	{"servecache.evictions", "count", "lower", 0},
	{"servecache.collapsed", "count", "higher", 0},
	{"admit.ns_per_acquire", "ns", "lower", 0},
	{"admit.shed_share", "share", "lower", 0},
	{"admit.wait_ms_sum", "ms", "lower", 0},
	{"rpc.score_overhead_ns", "ns", "lower", 0},
	{"rpc.gather_overhead_ns", "ns", "lower", 0},
	{"rpc.calls_per_q", "count", "lower", 0},
	{"rpc.bytes_per_q", "bytes", "lower", 0},
	{"rpc.retries", "count", "lower", 0},
	{"rpc.hedges", "count", "lower", 0},
	{"rpc.ingest_ns_per_doc", "ns", "lower", 0},
	{"coord.self_ns_per_q", "ns", "lower", 0},
	{"coord.degraded_share", "share", "lower", 0},
	{"coord.sync_ms", "ms", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.latency_p99_ms", "ms", "lower", 0},
	{"loadgen.latency_p99_ms.b", "ms", "lower", 0},
	{"loadgen.loaded_p50_ms", "ms", "lower", 0},
	{"loadgen.fresh_lag_p50_ms", "ms", "lower", 0},
	{"bench.pages_per_s", "pages/s", "higher", 0},
	{"bench.queryable_lag_s", "s", "lower", 0},
	{"bench.reopen_s", "s", "lower", 0},
	{"bench.trace_overhead_share", "share", "lower", 0},
	{"bench.gc_cpu_share", "share", "lower", 0},
	{"bench.budget_gap_share", "share", "lower", 0},
	{"bench.fail_share", "share", "lower", 0},
}

// Rates are the open-loop arrival rates of one workload's two windows, in
// requests per second. They are constants: fixed once, at the commit that
// introduced the benchmark, to the stated share of the capacity measured
// there (q_per_cpu_s × 2 cores; see README.md), and never adapted at run
// time — a later commit is measured under the same offered load.
type Rates struct{ Lo, Hi float64 }

// Scale sizes everything the time cap of the benchmark contract forces to
// shrink: the world, the crawl budgets, the memtable (so that every shard
// still freezes several times and compacts at least once), the churn
// writer, the replays and the oracles. Bench is what BENCHMARK.json runs;
// Tiny is what the tier-1 tests run.
type Scale struct {
	World corpus.Config // Seed is overwritten by --seed
	// LearnBudget and HarvestBudget are page-visit budgets. They stop the
	// crawl a little before the focused frontier of the smallest world runs
	// dry, and CorpusDocs cuts the serving corpus to a fixed size, so that
	// every seed gives the program the same amount of work: the driver
	// judges run-to-run spread across seeds, and a world that happens to be
	// a tenth larger must not read as noise.
	LearnBudget    int64
	HarvestBudget  int64
	CorpusDocs     int // 0 = everything the staging crawl stored
	StoreShards    int
	MemtableBudget int64
	// Reserve documents are held back from the serving corpus for the churn
	// writer: Flushes flushes of FlushDocs documents each.
	FlushDocs int
	Flushes   int
	// SetupReps is how often an untraced run builds its set-up; setup_s and
	// the corpus-build metrics are medians over the repetitions.
	SetupReps int
	// ReplayPages and ReplayQueries size the staged replays of a traced run.
	ReplayPages   int
	ReplayQueries int
	// OracleQueries is how many seeded queries each oracle compares.
	OracleQueries int
	// RecallTopN and RecallFloor are the World.Evaluate oracle of
	// ingest-tiered: at least RecallFloor of the top RecallTopN authors'
	// pages must be among the stored URLs.
	RecallTopN  int
	RecallFloor float64
	// WarmQueries is the number of warm-up requests before a timed window;
	// PoolQueries is how many distinct timed queries the pool aims for (it
	// must exceed the requests of one run so serve-cold never repeats one).
	WarmQueries int
	PoolQueries int
	Rates       map[string]Rates
}

// Reserve returns the number of documents held back for the churn writer.
func (s Scale) Reserve() int { return s.FlushDocs * s.Flushes }

// Bench is the scale BENCHMARK.json runs. The issue sized the bench world
// at ten times corpus.DefaultConfig (71k pages, ≈23k stored, ≈6 min per
// full pass on two cores); the contract allows ≈35 s per run including
// set-up, so the world is corpus.DefaultConfig itself (7,091 pages, ≈4.0k
// stored when the frontier runs dry at seed 2003) and every other size
// shrinks in proportion. No workload is dropped.
var Bench = Scale{
	World:          corpus.DefaultConfig(),
	LearnBudget:    400,
	HarvestBudget:  3400,
	CorpusDocs:     3000,
	StoreShards:    8,
	MemtableBudget: 512 << 10,
	FlushDocs:      32,
	Flushes:        4,
	SetupReps:      3,
	ReplayPages:    1200,
	ReplayQueries:  300,
	OracleQueries:  200,
	RecallTopN:     100,
	RecallFloor:    0.40,
	WarmQueries:    100,
	PoolQueries:    6000,
	Rates: map[string]Rates{
		IngestTiered: {Lo: 150, Hi: 240},
		ServeCold:    {Lo: 150, Hi: 240},
		ServeSharded: {Lo: 55, Hi: 90},
		ServeChurn:   {Lo: 200, Hi: 400},
	},
}

// Tiny runs all four workloads in a couple of seconds for the tests.
var Tiny = Scale{
	World:          corpus.TinyConfig(),
	LearnBudget:    60,
	HarvestBudget:  20000,
	StoreShards:    8,
	MemtableBudget: 32 << 10,
	FlushDocs:      4,
	Flushes:        3,
	SetupReps:      1,
	ReplayPages:    60,
	ReplayQueries:  30,
	OracleQueries:  25,
	RecallTopN:     10,
	RecallFloor:    0.5,
	WarmQueries:    20,
	PoolQueries:    600,
	Rates: map[string]Rates{
		IngestTiered: {Lo: 100, Hi: 200},
		ServeCold:    {Lo: 100, Hi: 200},
		ServeSharded: {Lo: 60, Hi: 120},
		ServeChurn:   {Lo: 100, Hi: 200},
	},
}

// Conns is the number of keep-alive connections the load generator uses.
func Conns() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// Store settings shared by every tiered store the benchmark opens: the
// shipped binaries' defaults (cmd/portald, cmd/shardd) except the memtable.
const (
	walSync       = true
	compactFanout = 4
	crawlWorkers  = 2
	batchRows     = 32 // core.Config.BatchSize default: rows per workspace flush
)

// Serving-stack settings, as cmd/portald ships them.
const (
	cacheEntries = 4096
	maxInFlight  = 64
	maxQueue     = 128
	queueTimeout = 100 * time.Millisecond
	retryAfter   = time.Second
)

// lagSamples and reopenSamples are how often a traced run repeats its two
// sub-second measurements, "first query over the full corpus" and "restart
// until the first answer"; the median is reported. An untraced run, which
// does not report them, asks once and restarts once.
const (
	lagSamples    = 5
	reopenSamples = 3
)

// zipfS and zipfHead shape serve-churn's cache-friendly query stream.
const (
	zipfS    = 1.1
	zipfHead = 256
)
