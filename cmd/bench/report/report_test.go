package report

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareVerdictsOnFixtures(t *testing.T) {
	old, err := Load(filepath.Join("testdata", "old.json"))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Load(filepath.Join("testdata", "new.json"))
	if err != nil {
		t.Fatal(err)
	}
	gated, layers, regressed := Compare(old, cur)
	if !regressed {
		t.Error("the fixtures contain regressions; Compare must say so")
	}
	want := map[string]Verdict{
		"serve-cold/q_per_cpu_s":        Improved,   // +24 % on a higher-is-better metric, tight runs
		"serve-cold/latency_p50_ms":     Regression, // +37 % against a 20 % bound, tight runs
		"serve-cold/loaded_p50_ms":      Unresolved, // +20 % is inside the bound but the runs spread 80 %
		"serve-cold/write_amp":          OK,
		"serve-cold/peak_rss_mb":        Unresolved, // +49 % but one new run beats every old one and the runs spread
		"serve-cold/fail_share":         Regression, // 0 → 0.5 % failed
		"ingest-tiered/pages_per_cpu_s": Improved,   // noisy on both sides, yet every new run beats every old one
		"ingest-tiered/fail_share":      OK,
	}
	got := map[string]Verdict{}
	for _, r := range gated {
		got[r.Workload+"/"+r.Metric] = r.Verdict
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: verdict %q, want %q", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("gated rows %v, want exactly %d", got, len(want))
	}
	if len(layers) != 1 || layers[0].Verdict != "" || layers[0].Metric != "search.gather_ns_per_q" {
		t.Errorf("per-layer rows = %+v, want the one shared metric with no verdict", layers)
	}

	var buf bytes.Buffer
	WriteTable(&buf, gated, layers)
	table := buf.String()
	for _, s := range []string{"serve-cold/latency_p50_ms", "+36.59%", "REGRESSION", "unresolved", "per layer (never gating)", "-68.75%"} {
		if !strings.Contains(table, s) {
			t.Errorf("table lacks %q:\n%s", s, table)
		}
	}
}

func TestSameRunsCompareClean(t *testing.T) {
	old, err := Load(filepath.Join("testdata", "old.json"))
	if err != nil {
		t.Fatal(err)
	}
	gated, _, regressed := Compare(old, old)
	if regressed {
		t.Error("a results file regressed against itself")
	}
	for _, r := range gated {
		// A metric whose own runs spread wider than its bound cannot be
		// called unchanged even against itself.
		if r.Metric == "loaded_p50_ms" || r.Metric == "pages_per_cpu_s" {
			if r.Verdict != Unresolved {
				t.Errorf("%s/%s: %q, want unresolved", r.Workload, r.Metric, r.Verdict)
			}
			continue
		}
		if r.Verdict != OK {
			t.Errorf("%s/%s: %q, want ok", r.Workload, r.Metric, r.Verdict)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := &Results{
		Env: Env{NProc: 2, Seed: 7, Rates: map[string][2]float64{"serve-cold": {80, 160}}},
		Workloads: []Workload{{
			Name: "serve-cold", Correct: true, Attempted: 10,
			EndToEnd: []Series{NewSeries("setup_s", "s", "lower", 0.25, []float64{3, 1, 2})},
		}},
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	s := back.Workloads[0].EndToEnd[0]
	if s.Median != 2 || s.Q1 != 1 || s.Q3 != 3 || back.Env.Rates["serve-cold"][1] != 160 {
		t.Errorf("round trip lost data: %+v %+v", s, back.Env)
	}
	var buf bytes.Buffer
	back.Print(&buf)
	if !strings.Contains(buf.String(), "setup_s") || !strings.Contains(buf.String(), "median 2") {
		t.Errorf("Print output lacks the metric:\n%s", buf.String())
	}
}
