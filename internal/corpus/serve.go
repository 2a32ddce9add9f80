package corpus

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"github.com/bingo-search/bingo/internal/dns"
	"github.com/bingo-search/bingo/internal/htmldoc"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
)

// transport serves the world in-process as an http.RoundTripper, so the
// production fetcher code path runs unchanged against the synthetic Web.
type transport struct {
	w *World
}

// RoundTripper returns an in-process transport for the world.
func (w *World) RoundTripper() http.RoundTripper { return &transport{w: w} }

// RoundTrip implements http.RoundTripper.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	u := *req.URL
	u.Fragment = ""
	if t.w.cfg.WithTrap && u.Hostname() == TrapHost {
		return trapPage(req), nil
	}
	page, ok := t.w.Pages[u.String()]
	if !ok {
		return notFound(req), nil
	}
	// The header is precomputed per page and shared across responses; the
	// fetch layer only reads it.
	return &http.Response{
		Status:        "200 OK",
		StatusCode:    http.StatusOK,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        page.header,
		Body:          io.NopCloser(bytes.NewReader(page.Body)),
		ContentLength: int64(len(page.Body)),
		Request:       req,
	}, nil
}

// trapPage synthesizes an unbounded calendar-style trap page: every URL on
// the trap host resolves to a near-empty page linking to ever-deeper URLs,
// the classic crawler trap of §4.2. Content is topic-free so a focused
// crawler rejects it, and the growing paths eventually hit the URL-length
// limit even for an unfocused one.
func trapPage(req *http.Request) *http.Response {
	base := strings.TrimSuffix(req.URL.Path, "/")
	var b strings.Builder
	b.WriteString("<html><head><title>Calendar</title></head><body><p>events events events</p>\n")
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&b, "<a href=\"%s/%02d\">next month</a>\n", base, i)
	}
	b.WriteString("</body></html>\n")
	body := []byte(b.String())
	h := http.Header{}
	h.Set("Content-Type", "text/html")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	return &http.Response{
		Status:        "200 OK",
		StatusCode:    http.StatusOK,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

func notFound(req *http.Request) *http.Response {
	body := []byte("404 page not found")
	h := http.Header{}
	h.Set("Content-Type", "text/plain")
	return &http.Response{
		Status:        "404 Not Found",
		StatusCode:    http.StatusNotFound,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// DNSTable exposes every generated host for the resolver simulation.
func (w *World) DNSTable() map[string]dns.Record {
	out := make(map[string]dns.Record, len(w.hostIPs))
	for host, ip := range w.hostIPs {
		out[host] = dns.Record{Host: host, IP: ip}
	}
	return out
}

// DNSServer returns a static name server answering for all world hosts.
func (w *World) DNSServer() *dns.StaticServer { return dns.NewStaticServer(w.DNSTable()) }

// PageTopic returns the ground-truth topic index of a URL (-1 for general
// pages; ok=false for unknown URLs).
func (w *World) PageTopic(url string) (int, bool) {
	p, ok := w.Pages[url]
	if !ok {
		return 0, false
	}
	return p.Topic, true
}

// ReferenceSearch plays the role of the large-scale Web search engine in
// the paper's expert-search workflow (§5.3: "we issued a Google query ...
// The top 10 matches from Google were intellectually inspected by us, and
// we selected 7 reasonable documents for training"). It ranks ALL world
// pages — something no crawler has — by cosine relevance to the query and
// returns the top-n URLs, from which a user picks crawl seeds.
func (w *World) ReferenceSearch(query string, n int) []string {
	w.refOnce.Do(func() {
		st := store.New()
		ws := st.NewWorkspace(256)
		for u, p := range w.Pages {
			doc, err := htmldoc.Convert(p.ContentType, p.Body, nil)
			if err != nil {
				continue
			}
			ws.Add(store.Document{URL: u, Title: doc.Title, Topic: "ref", Text: doc.Text, Terms: textproc.DocTerms(doc.Title, doc.Text)})
		}
		ws.Flush()
		w.refEngine = search.New(st)
	})
	hits := w.refEngine.Search(search.Query{Text: query, Limit: n})
	out := make([]string, 0, len(hits))
	for _, h := range hits {
		out = append(out, h.Doc.URL)
	}
	return out
}

// String summarizes the world.
func (w *World) String() string {
	return fmt.Sprintf("synthetic web: %d pages on %d hosts, %d topics, %d authors",
		len(w.Pages), len(w.hostIPs), len(w.cfg.Topics), len(w.Authors))
}
