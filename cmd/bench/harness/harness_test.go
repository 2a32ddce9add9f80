package harness

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// tinyRun drives one workload at the Tiny scale with every oracle on.
func tinyRun(t *testing.T, workload string, trace bool) *Outcome {
	t.Helper()
	out, err := Run(context.Background(), Options{
		Workload: workload,
		Seed:     7,
		Seconds:  0.6,
		Trace:    trace,
		Scale:    Tiny,
		WorkDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !out.Correct || out.Failed != 0 {
		t.Errorf("%s: correct=%v failed=%d of %d: %v", workload, out.Correct, out.Failed, out.Attempted, out.Problems)
	}
	if out.Attempted < 1 {
		t.Errorf("%s: attempted %d operations", workload, out.Attempted)
	}
	return out
}

// Every workload, untraced, reports every end-to-end metric and none of
// them is zero — BENCHMARK.json promises both.
func TestTinyWorldAllWorkloadsEndToEnd(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w, func(t *testing.T) {
			out := tinyRun(t, w, false)
			for _, m := range EndToEnd {
				v, ok := out.Metrics[m.Name]
				if !ok || v <= 0 {
					t.Errorf("%s: %s = %v (present %v); every end-to-end metric must be measured and non-zero", w, m.Name, v, ok)
				}
			}
			if len(out.Metrics) != len(EndToEnd) {
				t.Errorf("%s: %d metrics reported, want the %d end-to-end ones", w, len(out.Metrics), len(EndToEnd))
			}
			if w == ServeChurn && out.Info["churn.fresh_lag_p50_ms"] <= 0 {
				t.Errorf("serve-churn: no freshness lag recorded: %v", out.Info)
			}
		})
	}
}

// The traced run reports every per-layer metric, with the layers a workload
// does not touch reading zero and the ones it is about reading non-zero.
func TestTinyWorldTracedLayers(t *testing.T) {
	cases := []struct {
		workload      string
		nonZero, zero []string
	}{
		{IngestTiered,
			[]string{"fetch.ns_per_page", "htmldoc.ns_per_page", "textproc.ns_per_page", "classify.ns_per_page",
				"frontier.ns_per_item", "store.flush_ns_per_doc", "store.freeze_ns_per_doc", "store.wal_bytes_per_doc",
				"segment.build_bytes_per_doc", "store.reopen_ms", "crawler.worker_busy_share", "dns.ns_per_lookup"},
			[]string{"rpc.calls_per_q", "coord.self_ns_per_q", "search.plan_ns_per_q"}},
		{ServeCold,
			[]string{"search.plan_ns_per_q", "search.score_ns_per_q", "search.gather_ns_per_q", "search.candidates_per_q",
				"serve.http_ns_per_q", "serve.parse_ns_per_q", "serve.resp_bytes_per_q", "servecache.hit_ns",
				"servecache.miss_overhead_ns", "admit.ns_per_acquire", "segment.postings_ns_per_term", "loadgen.latency_p99_ms"},
			[]string{"rpc.calls_per_q", "rpc.bytes_per_q", "coord.self_ns_per_q", "coord.sync_ms", "fetch.ns_per_page", "loadgen.fresh_lag_p50_ms"}},
		{ServeSharded,
			[]string{"rpc.calls_per_q", "rpc.bytes_per_q", "rpc.score_overhead_ns", "rpc.gather_overhead_ns",
				"rpc.ingest_ns_per_doc", "coord.self_ns_per_q", "coord.sync_ms", "search.score_ns_per_q", "serve.http_ns_per_q"},
			[]string{"servecache.hit_ns", "admit.ns_per_acquire", "coord.degraded_share", "fetch.ns_per_page"}},
		{ServeChurn,
			[]string{"loadgen.fresh_lag_p50_ms", "search.docs_rebuilt_per_flush", "search.snapshot_rebuilds",
				"servecache.hit_share", "store.wal_fsyncs", "search.snapshot_build_ms"},
			[]string{"rpc.calls_per_q", "coord.self_ns_per_q"}},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			out := tinyRun(t, c.workload, true)
			if len(out.Metrics) != len(PerLayer) {
				t.Errorf("%d metrics reported, want the %d per-layer ones", len(out.Metrics), len(PerLayer))
			}
			for _, name := range c.nonZero {
				if out.Metrics[name] == 0 {
					t.Errorf("%s reads 0 on %s", name, c.workload)
				}
			}
			for _, name := range c.zero {
				if out.Metrics[name] != 0 {
					t.Errorf("%s = %v on %s, want 0", name, out.Metrics[name], c.workload)
				}
			}
			if c.workload == ServeCold && out.Metrics["servecache.hit_share"] > 0.5 {
				t.Errorf("serve-cold cache hit share %v; its queries are meant to be distinct", out.Metrics["servecache.hit_share"])
			}
			spans, err := os.ReadFile(out.SpanFile)
			if err != nil {
				t.Fatalf("span file: %v", err)
			}
			var parsed []map[string]any
			if err := json.Unmarshal(spans, &parsed); err != nil || len(parsed) == 0 {
				t.Errorf("span file holds %d spans (%v)", len(parsed), err)
			}
		})
	}
}

// With one crawl worker the staging crawl is a pure function of the seed,
// and so are the corpus, the reserve and the query pool derived from it.
func TestServingCorpusRepeatsExactly(t *testing.T) {
	build := func() *servingCorpus {
		c, err := buildServingCorpus(context.Background(), newWorld(Tiny, 7), Tiny, 7)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := build(), build()
	if a.stored != b.stored || a.visited != b.visited || len(a.docs) != len(b.docs) || len(a.reserve) != Tiny.Reserve() {
		t.Fatalf("stored %d/%d visited %d/%d docs %d/%d reserve %d", a.stored, b.stored, a.visited, b.visited, len(a.docs), len(b.docs), len(a.reserve))
	}
	for i := range a.docs {
		if a.docs[i].URL != b.docs[i].URL {
			t.Fatalf("doc %d: %s vs %s", i, a.docs[i].URL, b.docs[i].URL)
		}
	}
	if len(a.pool) != len(b.pool) || len(a.pool) < zipfHead {
		t.Fatalf("pool sizes %d and %d, need at least %d", len(a.pool), len(b.pool), zipfHead)
	}
	seen := map[string]bool{}
	for i := range a.pool {
		if a.pool[i] != b.pool[i] {
			t.Fatalf("pool query %d: %q vs %q", i, a.pool[i], b.pool[i])
		}
		if seen[a.pool[i]] {
			t.Fatalf("pool repeats %q", a.pool[i])
		}
		seen[a.pool[i]] = true
	}
	for _, q := range a.warm {
		if seen[q] {
			t.Fatalf("warm-up query %q is also in the timed pool", q)
		}
	}
	other, err := buildServingCorpus(context.Background(), newWorld(Tiny, 8), Tiny, 8)
	if err != nil {
		t.Fatal(err)
	}
	if other.pool[0] == a.pool[0] && other.pool[1] == a.pool[1] && other.pool[2] == a.pool[2] {
		t.Error("another seed gave the same first queries")
	}
}

// BENCHMARK.json and the tables in spec.go must agree name for name: the
// driver reads one, the program prints the other.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d: %q vs %q", i, w.Name, Workloads[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1–200", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(EndToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(spec.EndToEnd), len(EndToEnd))
	}
	setup := false
	for i, m := range spec.EndToEnd {
		e := EndToEnd[i]
		if m.Name != e.Name || m.Unit != e.Unit || m.Better != e.Better || m.Bound != e.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, m, e)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(spec.PerLayer) != len(PerLayer) || len(PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness (cap 128)", len(spec.PerLayer), len(PerLayer))
	}
	for i, m := range spec.PerLayer {
		e := PerLayer[i]
		if m.Name != e.Name || m.Unit != e.Unit || m.Better != e.Better {
			t.Errorf("per-layer %d: %+v vs %+v", i, m, e)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "cmd/bench" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}
