package store

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The tiered-storage cold-start benchmark. Write amplification, disk bytes
// per text byte and reopen time are tracked end to end by cmd/bench
// (workload ingest-tiered).

// benchCorpusDoc builds document i of the benchmark corpus: ~1.5 KiB of
// synthetic text and a realistic term vector, deterministic in i.
func benchCorpusDoc(rng *rand.Rand, i int) Document {
	var text []byte
	for len(text) < 1500 {
		text = append(text, fmt.Sprintf("segment tier benchmark body %d word%d recovery transaction log ", i, rng.Intn(5000))...)
	}
	terms := make(map[string]int, 60)
	terms["alpha"] = 1 + i%4
	for j := 0; j < 60; j++ {
		terms[fmt.Sprintf("term%04d", rng.Intn(4000))] += 1 + rng.Intn(3)
	}
	u := fmt.Sprintf("http://bench%d.example/doc/%d", i%31, i)
	return Document{
		URL: u, FinalURL: u,
		Title:       fmt.Sprintf("benchmark document %d", i),
		ContentType: "text/html",
		Topic:       []string{"ROOT/db", "ROOT/db/recovery", "ROOT/web"}[i%3],
		Confidence:  float64(i%97) / 97,
		Depth:       i % 6,
		Text:        string(text),
		Terms:       terms,
		CrawledAt:   time.Unix(1700000000+int64(i), 0),
	}
}

// fillBenchCorpus streams nDocs benchmark documents into the store through
// a workspace (the crawler write path).
func fillBenchCorpus(t testing.TB, s *Store, nDocs int) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	w := s.NewWorkspace(64)
	for i := 0; i < nDocs; i++ {
		d := benchCorpusDoc(rng, i)
		w.Add(d)
		if i%4 == 0 {
			w.AddLink(Link{From: d.URL, To: fmt.Sprintf("http://bench%d.example/doc/%d", (i+1)%31, (i+1)%nDocs), Anchor: "next"})
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// BenchmarkTieredColdStart times OpenTiered over a frozen corpus — the
// O(segment metadata + WAL tail) path a restart pays.
func BenchmarkTieredColdStart(b *testing.B) {
	dir := b.TempDir()
	s, err := OpenTiered(dir, 4, TierOptions{DisableCompaction: true})
	if err != nil {
		b.Fatal(err)
	}
	fillBenchCorpus(b, s, 4000)
	for i := 0; i < s.NumShards(); i++ {
		if err := s.FreezeShard(i); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := OpenTiered(dir, 4, TierOptions{DisableCompaction: true})
		if err != nil {
			b.Fatal(err)
		}
		if re.NumDocs() != 4000 {
			b.Fatalf("recovered %d docs", re.NumDocs())
		}
		b.StopTimer()
		re.Close()
		b.StartTimer()
	}
}
