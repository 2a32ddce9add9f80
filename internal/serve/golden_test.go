package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/bingo-search/bingo/internal/rpc"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/vsm"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current behaviour")

// frozenCorpus is buildCorpus(nDocs) in a tiered store with every shard
// frozen: all documents segment-resident, none in the memtable.
func frozenCorpus(t *testing.T, nDocs int) *store.Store {
	t.Helper()
	s, err := store.OpenTiered(t.TempDir(), 4, store.TierOptions{MemtableBudget: 1 << 40, DisableCompaction: true})
	if err != nil {
		t.Fatalf("OpenTiered: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	fillCorpus(s, nDocs, 0)
	for i := 0; i < s.NumShards(); i++ {
		if err := s.FreezeShard(i); err != nil {
			t.Fatalf("freeze shard %d: %v", i, err)
		}
	}
	return s
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	got = append(bytes.TrimSpace(got), '\n')
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden\n got: %s\nwant: %s", name, got, want)
	}
}

// TestSearchHitsGolden pins the default wire format byte for byte: the hits
// array of a fixed /search request and of a fixed /rpc/v1/gather call over
// the same all-frozen tiered corpus. The goldens were generated before hits
// stopped hydrating from the segment tier, so they also prove that no byte
// either consumer emits ever came from the cold payload. took_ns, cached
// and epochs vary per run and are excluded.
func TestSearchHitsGolden(t *testing.T) {
	st := frozenCorpus(t, 300)

	t.Run("search", func(t *testing.T) {
		_, resp := get(t, newTestAPI(st, false), "/search?q=recovery+transaction&k=10")
		checkGolden(t, "search_hits.golden", resp.Hits)
	})

	t.Run("gather", func(t *testing.T) {
		srv := rpc.NewServer(st)
		part := srv.Partition()
		stats := part.Stats()
		if err := part.SetGlobal("g1", stats.Pin, stats.NumDocs, stats.Terms, stats.DF); err != nil {
			t.Fatal(err)
		}
		df := make(map[string]int, len(stats.Terms))
		for i, term := range stats.Terms {
			df[term] = stats.DF[i]
		}
		plan, ok := search.NewPlanner().Plan(search.Query{Text: "recovery transaction"},
			vsm.TableFromDocFreq(df, stats.NumDocs))
		if !ok {
			t.Fatal("query has no indexable stems")
		}
		sc, err := part.Score("g1", plan)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(rpc.GatherRequest{V: rpc.ProtoVersion, Version: "g1", Plan: *plan,
			MaxCos: sc.MaxCos, MaxConf: sc.MaxConf, MaxAuth: sc.MaxAuth})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, rpc.PathGather, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("gather status %d: %s", w.Code, w.Body.String())
		}
		var resp struct {
			Hits json.RawMessage `json:"hits"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "gather_hits.golden", resp.Hits)
	})
}
