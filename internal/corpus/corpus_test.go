package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"

	"github.com/bingo-search/bingo/internal/htmldoc"
)

func tinyWorld(t *testing.T) *World {
	t.Helper()
	return Generate(TinyConfig())
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(TinyConfig())
	b := Generate(TinyConfig())
	if a.NumPages() != b.NumPages() {
		t.Fatalf("page counts differ: %d vs %d", a.NumPages(), b.NumPages())
	}
	for u, pa := range a.Pages {
		pb, ok := b.Pages[u]
		if !ok {
			t.Fatalf("page %s missing in second world", u)
		}
		if string(pa.Body) != string(pb.Body) {
			t.Fatalf("page %s differs between runs", u)
		}
	}
}

func TestWorldStructure(t *testing.T) {
	w := tinyWorld(t)
	if w.NumPages() < 100 {
		t.Fatalf("too few pages: %d", w.NumPages())
	}
	if len(w.Authors) != 40 {
		t.Fatalf("authors = %d", len(w.Authors))
	}
	// publication counts descend from 258 to >= 2
	if w.Authors[0].Pubs != 258 {
		t.Errorf("top author pubs = %d", w.Authors[0].Pubs)
	}
	for i := 1; i < len(w.Authors); i++ {
		if w.Authors[i].Pubs > w.Authors[i-1].Pubs {
			t.Fatalf("pubs not descending at %d", i)
		}
		if w.Authors[i].Pubs < 2 {
			t.Fatalf("pubs below 2 at %d", i)
		}
	}
	// seeds are the top-2 author homepages
	seeds := w.SeedURLs()
	if len(seeds) != 2 || seeds[0] != w.Authors[0].HomeURL {
		t.Errorf("seeds = %v", seeds)
	}
	// expert community present
	if len(w.ExpertSeedURLs()) != 7 || len(w.NeedleURLs()) != 2 {
		t.Errorf("expert seeds = %d needles = %d", len(w.ExpertSeedURLs()), len(w.NeedleURLs()))
	}
	// every page's host is registered with an IP
	tbl := w.DNSTable()
	for u, p := range w.Pages {
		if _, ok := tbl[p.Host]; !ok {
			t.Fatalf("host of %s missing from DNS table", u)
		}
	}
	if got := len(w.Hosts()); got != len(tbl) {
		t.Errorf("Hosts() = %d, table = %d", got, len(tbl))
	}
}

func TestAllLinksResolvable(t *testing.T) {
	w := tinyWorld(t)
	dangling := 0
	total := 0
	for u, p := range w.Pages {
		doc, err := htmldoc.Convert(p.ContentType, p.Body, nil)
		if err != nil {
			t.Fatalf("convert %s: %v", u, err)
		}
		for _, l := range doc.Links {
			total++
			if _, ok := w.Pages[l.URL]; !ok {
				dangling++
			}
		}
	}
	if total == 0 {
		t.Fatal("no links extracted")
	}
	if dangling > 0 {
		t.Errorf("%d/%d dangling links", dangling, total)
	}
}

func TestTopicalLocality(t *testing.T) {
	// most links from primary-topic content pages stay on topic
	w := tinyWorld(t)
	same, cross := 0, 0
	for _, p := range w.Pages {
		if p.Topic != 0 || p.Kind == KindDeptHome {
			continue
		}
		doc, _ := htmldoc.Convert(p.ContentType, p.Body, nil)
		for _, l := range doc.Links {
			tgt, ok := w.Pages[l.URL]
			if !ok {
				continue
			}
			if tgt.Topic == 0 {
				same++
			} else {
				cross++
			}
		}
	}
	if same <= cross*3 {
		t.Errorf("weak topical locality: same=%d cross=%d", same, cross)
	}
}

func TestRoundTripper(t *testing.T) {
	w := tinyWorld(t)
	client := &http.Client{Transport: w.RoundTripper()}
	resp, err := client.Get(w.SeedURLs()[0])
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "author0000") {
		t.Fatalf("status=%d body=%.80s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/html" {
		t.Errorf("content type = %q", ct)
	}
	resp, err = client.Get("http://nosuch.example/missing")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("missing page status = %d", resp.StatusCode)
	}
}

func TestAuthorRankAndEvaluate(t *testing.T) {
	w := tinyWorld(t)
	a0 := w.Authors[0]
	if rank, ok := w.AuthorRank(a0.HomeURL); !ok || rank != 0 {
		t.Errorf("AuthorRank(home) = %d, %v", rank, ok)
	}
	if rank, ok := w.AuthorRank(a0.HomePrefix + "pubs.html"); !ok || rank != 0 {
		t.Errorf("AuthorRank(pubs) = %d, %v", rank, ok)
	}
	if _, ok := w.AuthorRank("http://www.gen00.example/p00.html"); ok {
		t.Error("general page got an author rank")
	}
	if _, ok := w.AuthorRank("http://evil.example/~author0000/fake.html"); ok {
		t.Error("prefix spoof accepted")
	}

	stored := []string{
		a0.HomePrefix + "papers/p00.pdf",
		w.Authors[5].HomeURL,
		w.Authors[5].HomePrefix + "pubs.html", // same author twice
		"http://www.gen00.example/p00.html",
	}
	ranked := []string{a0.HomeURL, "http://www.gen00.example/p00.html"}
	ev := w.Evaluate(stored, ranked, 3)
	if ev.FoundAll != 2 {
		t.Errorf("FoundAll = %d", ev.FoundAll)
	}
	if ev.FoundTop != 1 { // only author0 is within top-3
		t.Errorf("FoundTop = %d", ev.FoundTop)
	}
	if ev.TopInRanked != 1 {
		t.Errorf("TopInRanked = %d", ev.TopInRanked)
	}
	if got := len(w.TopAuthors(10)); got != 10 {
		t.Errorf("TopAuthors = %d", got)
	}
	if got := len(w.TopAuthors(1000)); got != len(w.Authors) {
		t.Errorf("TopAuthors clamp = %d", got)
	}
}

func TestNeedlePagesContainNeedleTerms(t *testing.T) {
	w := tinyWorld(t)
	for _, u := range w.NeedleURLs() {
		p := w.Pages[u]
		body := string(p.Body)
		for _, term := range []string{"source", "code", "release"} {
			if !strings.Contains(body, term) {
				t.Errorf("needle %s missing %q", u, term)
			}
		}
	}
	// needles are NOT linked from seeds directly (depth > 1)
	seedSet := map[string]struct{}{}
	for _, s := range w.ExpertSeedURLs() {
		doc, _ := htmldoc.Convert(w.Pages[s].ContentType, w.Pages[s].Body, nil)
		for _, l := range doc.Links {
			seedSet[l.URL] = struct{}{}
		}
	}
	for _, n := range w.NeedleURLs() {
		if _, direct := seedSet[n]; direct {
			t.Errorf("needle %s directly linked from a seed", n)
		}
	}
}

func TestGeneralPageURLs(t *testing.T) {
	w := tinyWorld(t)
	got := w.GeneralPageURLs(10)
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	for _, u := range got {
		if w.Pages[u].Kind != KindGeneral {
			t.Errorf("%s is not general", u)
		}
	}
	if n := len(w.GeneralPageURLs(1 << 20)); n != len(w.generalPages) {
		t.Errorf("overflow request = %d", n)
	}
}

func TestPageTopicAndString(t *testing.T) {
	w := tinyWorld(t)
	if ti, ok := w.PageTopic(w.SeedURLs()[0]); !ok || ti != 0 {
		t.Errorf("PageTopic seed = %d, %v", ti, ok)
	}
	if _, ok := w.PageTopic("http://nope.example/"); ok {
		t.Error("unknown URL has topic")
	}
	if s := w.String(); !strings.Contains(s, "pages") {
		t.Errorf("String = %q", s)
	}
}

func BenchmarkGenerateTiny(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(TinyConfig())
	}
}

func TestHierarchicalWorld(t *testing.T) {
	cfg := TinyConfig()
	cfg.PrimarySubtopics = []string{"systems", "mining"}
	w := Generate(cfg)
	subs := w.PrimarySubtopics()
	if len(subs) != 2 {
		t.Fatalf("subs = %v", subs)
	}
	// every author carries a valid subtopic; round-robin split is balanced
	counts := map[int]int{}
	for _, a := range w.Authors {
		if a.Subtopic < 0 || a.Subtopic >= len(subs) {
			t.Fatalf("author %s subtopic %d", a.Name, a.Subtopic)
		}
		counts[a.Subtopic]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("unbalanced subtopics: %v", counts)
	}
	// seeds: two per subcommunity, belonging to it
	seeds := w.SubtopicSeedURLs()
	for si, sub := range subs {
		if len(seeds[sub]) != 2 {
			t.Errorf("seeds[%s] = %v", sub, seeds[sub])
		}
		for _, u := range seeds[sub] {
			if got, ok := w.AuthorSubtopic(u); !ok || got != si {
				t.Errorf("seed %s subtopic = %d,%v want %d", u, got, ok, si)
			}
		}
	}
	// subtopic vocabulary shows up in member pages
	sawSystems, sawMining := false, false
	for _, a := range w.Authors[:10] {
		body := string(w.Pages[a.HomeURL].Body)
		if a.Subtopic == 0 && strings.Contains(body, "checkpoint") {
			sawSystems = true
		}
		if a.Subtopic == 1 && strings.Contains(body, "olap") {
			sawMining = true
		}
	}
	if !sawSystems || !sawMining {
		t.Errorf("subtopic vocabulary missing: systems=%v mining=%v", sawSystems, sawMining)
	}
	// AuthorSubtopic on a single-level world reports not-ok
	flat := Generate(TinyConfig())
	if _, ok := flat.AuthorSubtopic(flat.Authors[0].HomeURL); ok {
		t.Error("single-level world reported a subtopic")
	}
}

func TestGzipPapersServedAndConvertible(t *testing.T) {
	w := Generate(TinyConfig())
	found := 0
	for u, p := range w.Pages {
		if !strings.HasSuffix(u, ".pdf.gz") {
			continue
		}
		found++
		if p.ContentType != "application/gzip" {
			t.Errorf("%s content type = %s", u, p.ContentType)
		}
		doc, err := htmldoc.Convert(p.ContentType, p.Body, nil)
		if err != nil {
			t.Fatalf("convert %s: %v", u, err)
		}
		if doc.Text == "" {
			t.Errorf("%s: empty text after gunzip", u)
		}
	}
	if found == 0 {
		t.Fatal("no gzip papers generated")
	}
}

func TestFramesetSeed(t *testing.T) {
	w := Generate(TinyConfig())
	seed2 := w.Authors[1].HomeURL
	doc, err := htmldoc.Convert("text/html", w.Pages[seed2].Body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Frames) != 2 {
		t.Fatalf("frames = %v", doc.Frames)
	}
	// frame pages exist under the author prefix
	for _, f := range doc.Frames {
		full := w.Authors[1].HomePrefix + f
		if _, ok := w.Pages[full]; !ok {
			t.Errorf("frame page %s missing", full)
		}
	}
}

func TestDefaultScaleWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("default world generation in -short mode")
	}
	w := Generate(DefaultConfig())
	if w.NumPages() < 6000 {
		t.Fatalf("default world too small: %d pages", w.NumPages())
	}
	if len(w.Authors) != 1200 {
		t.Fatalf("authors = %d", len(w.Authors))
	}
	if len(w.Hosts()) < 100 {
		t.Errorf("hosts = %d", len(w.Hosts()))
	}
	// spot check: ground truth coherent at scale
	a := w.Authors[100]
	if rank, ok := w.AuthorRank(a.HomeURL); !ok || rank != 100 {
		t.Errorf("rank = %d, %v", rank, ok)
	}
}

// TestDefaultWorldGolden pins the default world byte for byte: SHA-256
// over its URLs in sorted order, each URL's bytes followed by its body.
func TestDefaultWorldGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("default world generation in -short mode")
	}
	w := Generate(DefaultConfig())
	urls := make([]string, 0, len(w.Pages))
	for u := range w.Pages {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	h := sha256.New()
	for _, u := range urls {
		h.Write([]byte(u))
		h.Write(w.Pages[u].Body)
	}
	const want = "a521c171e45d18a8702a073575142e755e266b135352114fd600755af43e1dd1"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("default world digest %s, want %s", got, want)
	}
}

func TestTrapHost(t *testing.T) {
	cfg := TinyConfig()
	cfg.WithTrap = true
	w := Generate(cfg)
	client := &http.Client{Transport: w.RoundTripper()}
	resp, err := client.Get("http://trap.example/cal/2003/01/01")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "/cal/2003/01/01/00") {
		t.Fatalf("trap page: %d %.200s", resp.StatusCode, body)
	}
	// deeper paths keep resolving (unbounded URL space)
	resp, _ = client.Get("http://trap.example/cal/2003/01/01/00/01/02")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("deep trap status = %d", resp.StatusCode)
	}
	// at least one general page links into the trap
	found := false
	for _, u := range w.GeneralPageURLs(1 << 20) {
		if strings.Contains(string(w.Pages[u].Body), "trap.example") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no entrance links to the trap")
	}
	// trap host resolvable
	if _, ok := w.DNSTable()[TrapHost]; !ok {
		t.Error("trap host missing from DNS")
	}
	// without the flag the trap 404s
	flat := Generate(TinyConfig())
	client = &http.Client{Transport: flat.RoundTripper()}
	resp, _ = client.Get("http://trap.example/cal/2003/01/01")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("trapless world served trap: %d", resp.StatusCode)
	}
}

func TestReferenceSearch(t *testing.T) {
	w := tinyWorld(t)
	top := w.ReferenceSearch("aries recovery algorithm", 10)
	if len(top) == 0 {
		t.Fatal("no reference results")
	}
	// the ARIES community must dominate the top results
	ariesHits := 0
	for _, u := range top {
		if strings.Contains(u, "aries") || strings.Contains(u, "mohan") ||
			strings.Contains(u, "shore") || strings.Contains(u, "minibase") {
			ariesHits++
		}
	}
	if ariesHits < len(top)/2 {
		t.Errorf("reference search off target: %v", top)
	}
	// second query reuses the lazily built index
	if got := w.ReferenceSearch("football match", 5); len(got) == 0 {
		t.Error("second query returned nothing")
	}
}
