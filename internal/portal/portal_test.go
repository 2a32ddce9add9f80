package portal

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/bingo-search/bingo/internal/store"
)

func testStore() *store.Store {
	s := store.New()
	fillTestStore(s)
	return s
}

func fillTestStore(s *store.Store) {
	s.Insert(store.Document{
		URL: "http://db.example/aries", Title: "ARIES recovery", Topic: "ROOT/db",
		Confidence: 0.9, Depth: 2, ContentType: "text/html",
		Text:  "the aries recovery algorithm uses write ahead logging",
		Terms: map[string]int{"ari": 2, "recoveri": 3, "log": 1},
	})
	s.Insert(store.Document{
		URL: "http://db.example/other", Title: "", Topic: "ROOT/db",
		Confidence: 0.4, ContentType: "text/html",
		Text:  "another database page about transactions",
		Terms: map[string]int{"databas": 1, "transact": 1},
	})
	s.AddLink(store.Link{From: "http://db.example/aries", To: "http://db.example/other"})
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestIndexListsTopics(t *testing.T) {
	srv := httptest.NewServer(New(testStore()))
	defer srv.Close()
	code, body := get(t, srv, "/")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "ROOT/db") || !strings.Contains(body, "2 documents") {
		t.Errorf("index body = %.300s", body)
	}
}

func TestTopicPage(t *testing.T) {
	srv := httptest.NewServer(New(testStore()))
	defer srv.Close()
	code, body := get(t, srv, "/topic?path=ROOT%2Fdb")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	// confidence-sorted: ARIES first
	if !strings.Contains(body, "ARIES recovery") {
		t.Errorf("topic body = %.300s", body)
	}
	if i, j := strings.Index(body, "ARIES"), strings.Index(body, "db.example/other"); i < 0 || j < 0 || i > j {
		t.Errorf("ordering wrong: aries@%d other@%d", i, j)
	}
	code, _ = get(t, srv, "/topic?path=ROOT%2Fnothing")
	if code != 404 {
		t.Errorf("missing topic status = %d", code)
	}
}

func TestSearchWithSnippets(t *testing.T) {
	srv := httptest.NewServer(New(testStore()))
	defer srv.Close()
	code, body := get(t, srv, "/search?q=aries+recovery")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "<b>aries</b>") && !strings.Contains(body, "<b>recovery</b>") {
		t.Errorf("no highlighted snippet: %.400s", body)
	}
	// empty result set renders gracefully
	code, body = get(t, srv, "/search?q=zzzzz")
	if code != 200 || !strings.Contains(body, "no results") {
		t.Errorf("empty search: %d %.200s", code, body)
	}
}

// TestSearchSnippetsColdStore: hits carry no body, so the page reads it per
// rendered row — including when every document is segment-resident.
func TestSearchSnippetsColdStore(t *testing.T) {
	s, err := store.OpenTiered(t.TempDir(), 2, store.TierOptions{MemtableBudget: 1 << 40, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillTestStore(s)
	for i := 0; i < s.NumShards(); i++ {
		if err := s.FreezeShard(i); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(New(s))
	defer srv.Close()
	code, body := get(t, srv, "/search?q=aries+recovery")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "<b>aries</b>") && !strings.Contains(body, "<b>recovery</b>") {
		t.Errorf("snippet not highlighted over a cold store: %.500s", body)
	}
}

func TestDocView(t *testing.T) {
	srv := httptest.NewServer(New(testStore()))
	defer srv.Close()
	code, body := get(t, srv, "/doc?url=http%3A%2F%2Fdb.example%2Faries")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"ARIES recovery", "write ahead logging", "Out-links", "db.example/other", "confidence 0.900"} {
		if !strings.Contains(body, want) {
			t.Errorf("doc view missing %q", want)
		}
	}
	code, _ = get(t, srv, "/doc?url=http%3A%2F%2Fnope")
	if code != 404 {
		t.Errorf("missing doc status = %d", code)
	}
}

func TestNotFoundPath(t *testing.T) {
	srv := httptest.NewServer(New(testStore()))
	defer srv.Close()
	code, _ := get(t, srv, "/bogus/path")
	if code != 404 {
		t.Errorf("status = %d", code)
	}
}

func TestEscaping(t *testing.T) {
	s := store.New()
	s.Insert(store.Document{
		URL: "http://x.example/xss", Title: `<script>alert(1)</script>`,
		Topic: "ROOT/t", Confidence: 0.5,
		Text:  `<img src=x onerror=alert(1)>`,
		Terms: map[string]int{"xss": 1},
	})
	srv := httptest.NewServer(New(s))
	defer srv.Close()
	_, body := get(t, srv, "/doc?url=http%3A%2F%2Fx.example%2Fxss")
	if strings.Contains(body, "<script>alert") || strings.Contains(body, "<img src=x") {
		t.Error("unescaped crawl content in HTML output")
	}
}

func TestHelpers(t *testing.T) {
	for f, want := range map[float64]string{0: "0.000", 0.9: "0.900", 1.2345: "1.235", 0.0005: "0.001", 12.9996: "13.000", -0.249: "-0.249"} {
		if got := ftoa(f); got != want {
			t.Errorf("ftoa(%v) = %q, want %q", f, got, want)
		}
	}
	if truncate("abc", 2) != "ab ..." || truncate("ab", 5) != "ab" {
		t.Error("truncate wrong")
	}
}

// TestTruncateKeepsRunesWhole: a cut that falls inside a multi-byte rune
// moves back to the rune's start instead of emitting half of it.
func TestTruncateKeepsRunesWhole(t *testing.T) {
	for _, tc := range []struct {
		s    string
		n    int
		want string
	}{
		{"héllo", 2, "h ..."},
		{"héllo", 3, "hé ..."},
		{"日本語", 4, "日 ..."},
		{"日本語", 1, " ..."},
	} {
		if got := truncate(tc.s, tc.n); got != tc.want || !utf8.ValidString(got) {
			t.Errorf("truncate(%q, %d) = %q, want %q", tc.s, tc.n, got, tc.want)
		}
	}
}

func TestTopicPageSuggestsSubclasses(t *testing.T) {
	s := store.New()
	// two distinct clusters inside one class
	for i := 0; i < 8; i++ {
		s.Insert(store.Document{
			URL: "http://a.example/sys" + string(rune('0'+i)), Topic: "ROOT/db",
			Confidence: 0.5, Text: "transaction recovery logging",
			Terms: map[string]int{"transact": 3, "recoveri": 2, "log": 2},
		})
		s.Insert(store.Document{
			URL: "http://a.example/min" + string(rune('0'+i)), Topic: "ROOT/db",
			Confidence: 0.5, Text: "mining clustering olap",
			Terms: map[string]int{"mine": 3, "cluster": 2, "olap": 2},
		})
	}
	srv := httptest.NewServer(New(s))
	defer srv.Close()
	code, body := get(t, srv, "/topic?path=ROOT%2Fdb")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "suggested subclasses") {
		t.Fatalf("no subclass suggestions: %.300s", body)
	}
	if !strings.Contains(body, "transact") || !strings.Contains(body, "mine") {
		t.Errorf("labels missing cluster terms: %.400s", body)
	}
}
