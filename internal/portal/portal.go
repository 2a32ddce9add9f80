// Package portal implements the Web-based portal explorer that the paper
// names as ongoing work (§6: "integrate [the] BINGO! engine with a
// Web-service-based portal explorer"): an http.Handler over a crawl
// database offering topic-tree browsing, keyword search with snippets, and
// per-document views. The original system served its local search engine
// as servlets under Apache/Jserv; this is the Go equivalent.
package portal

import (
	"html/template"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/bingo-search/bingo/internal/cluster"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
)

// Explorer serves a crawl database for human browsing.
type Explorer struct {
	store  *store.Store
	engine *search.Engine
	mux    *http.ServeMux
}

// New builds an explorer over st with its own search engine.
func New(st *store.Store) *Explorer { return NewWithEngine(st, search.New(st)) }

// NewWithEngine builds an explorer serving queries through eng, so a
// process that also mounts the JSON query API can share one engine — and
// therefore one set of search snapshots — between both frontends.
func NewWithEngine(st *store.Store, eng *search.Engine) *Explorer {
	e := &Explorer{store: st, engine: eng}
	mux := http.NewServeMux()
	mux.HandleFunc("/", e.handleIndex)
	mux.HandleFunc("/topic", e.handleTopic)
	mux.HandleFunc("/search", e.handleSearch)
	mux.HandleFunc("/doc", e.handleDoc)
	e.mux = mux
	return e
}

// ServeHTTP implements http.Handler.
func (e *Explorer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e.mux.ServeHTTP(w, r)
}

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>{{.Title}} — BINGO! portal</title>
<style>
body { font-family: sans-serif; margin: 2em; max-width: 60em; }
.snippet { color: #444; }
.meta { color: #777; font-size: smaller; }
b { background: #ffef9e; }
</style></head>
<body>
<p><a href="/">topics</a> |
<form style="display:inline" action="/search" method="get">
<input name="q" value="{{.Query}}" size="40">
<input type="hidden" name="topic" value="{{.Topic}}">
{{if .Tenant}}<input type="hidden" name="tenant" value="{{.Tenant}}">{{end}}
<input type="submit" value="search"></form></p>
<h1>{{.Title}}</h1>
{{.Body}}
</body></html>`))

type pageData struct {
	Title  string
	Query  string
	Topic  string
	Tenant string
	Body   template.HTML
}

func (e *Explorer) render(w http.ResponseWriter, d pageData) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := pageTmpl.Execute(w, d); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleIndex lists the topic tree with document counts.
func (e *Explorer) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	topics := e.store.Topics()
	sort.Strings(topics)
	var b strings.Builder
	b.WriteString("<ul>")
	for _, t := range topics {
		n := len(e.store.ByTopic(t))
		b.WriteString("<li><a href=\"/topic?path=" + template.URLQueryEscaper(t) + "\">" +
			template.HTMLEscapeString(t) + "</a> <span class=meta>(" +
			strconv.Itoa(n) + " documents)</span></li>")
	}
	b.WriteString("</ul>")
	e.render(w, pageData{
		Title: "Crawl result: " + strconv.Itoa(e.store.NumDocs()) + " documents",
		Body:  template.HTML(b.String()),
	})
}

// handleTopic lists a class's documents by descending confidence.
func (e *Explorer) handleTopic(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Query().Get("path")
	docs := e.store.ByTopic(path)
	if len(docs) == 0 {
		http.NotFound(w, r)
		return
	}
	limit := 50
	if len(docs) < limit {
		limit = len(docs)
	}
	var b strings.Builder
	// §3.6: for heterogeneous classes, the cluster analysis suggests new
	// subclasses with tentative labels from their characteristic terms.
	if len(docs) >= 10 {
		terms := make([]map[string]int, len(docs))
		for i, d := range docs {
			terms[i] = d.Terms
		}
		res, k := cluster.ChooseKTerms(terms, 2, 4, cluster.Options{Seed: 1, LabelLen: 4})
		if k >= 2 {
			b.WriteString("<p class=meta>suggested subclasses: ")
			for i, label := range res.Labels {
				if i > 0 {
					b.WriteString(" · ")
				}
				b.WriteString(template.HTMLEscapeString(strings.Join(label, " ")))
			}
			b.WriteString("</p>")
		}
	}
	b.WriteString("<ol>")
	for _, d := range docs[:limit] {
		b.WriteString("<li>" + docLink(d) +
			" <span class=meta>confidence " + ftoa(d.Confidence) + "</span></li>")
	}
	b.WriteString("</ol>")
	e.render(w, pageData{
		Title: path + " (" + strconv.Itoa(len(docs)) + " documents)",
		Topic: path,
		Body:  template.HTML(b.String()),
	})
}

// handleSearch runs the local search engine with snippets.
func (e *Explorer) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	topic := r.URL.Query().Get("topic")
	// An absent tenant parameter searches the default tenant's portal, so
	// pre-tenancy bookmarks and forms behave exactly as before.
	tenant := r.URL.Query().Get("tenant")
	hits := e.engine.Search(search.Query{
		Text:    q,
		Topic:   topic,
		Tenant:  tenant,
		Exact:   r.URL.Query().Get("exact") == "1",
		Weights: search.Weights{Cosine: 0.6, Confidence: 0.4},
		Limit:   20,
	})
	var b strings.Builder
	if len(hits) == 0 {
		b.WriteString("<p>no results</p>")
	}
	b.WriteString("<ol>")
	for _, h := range hits {
		// Hits carry no body; read it for the rows rendered. A failed read
		// yields "" and the row renders without a snippet.
		text, _ := e.store.DocText(h.Doc.ID)
		snippet := search.Snippet(text, q, 30, "<b>", "</b>")
		b.WriteString("<li>" + docLink(h.Doc) +
			"<div class=snippet>" + snippet + "</div>" +
			"<div class=meta>score " + ftoa(h.Score) + " · topic " +
			template.HTMLEscapeString(h.Doc.Topic) + "</div></li>")
	}
	b.WriteString("</ol>")
	e.render(w, pageData{
		Title:  "Results for “" + template.HTMLEscapeString(q) + "”",
		Query:  q,
		Topic:  topic,
		Tenant: tenant,
		Body:   template.HTML(b.String()),
	})
}

// handleDoc shows one document.
func (e *Explorer) handleDoc(w http.ResponseWriter, r *http.Request) {
	u := r.URL.Query().Get("url")
	d, err := e.store.GetByURL(u)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	var b strings.Builder
	b.WriteString("<p class=meta>topic " + template.HTMLEscapeString(d.Topic) +
		" · confidence " + ftoa(d.Confidence) +
		" · depth " + strconv.Itoa(d.Depth) + " · " + template.HTMLEscapeString(d.ContentType) + "</p>")
	b.WriteString("<p>" + template.HTMLEscapeString(truncate(d.Text, 2000)) + "</p>")
	succ := e.store.Successors(d.URL)
	if len(succ) > 0 {
		b.WriteString("<h2>Out-links</h2><ul>")
		for i, s := range succ {
			if i >= 25 {
				break
			}
			b.WriteString("<li>" + template.HTMLEscapeString(s) + "</li>")
		}
		b.WriteString("</ul>")
	}
	title := d.Title
	if title == "" {
		title = d.URL
	}
	e.render(w, pageData{Title: title, Body: template.HTML(b.String())})
}

func docLink(d store.Document) string {
	label := d.Title
	if label == "" {
		label = d.URL
	}
	return "<a href=\"/doc?url=" + template.URLQueryEscaper(d.URL) + "\">" +
		template.HTMLEscapeString(label) + "</a>"
}

// ftoa renders f with three decimals, rounding half up.
func ftoa(f float64) string {
	return strconv.FormatFloat(math.Floor(f*1000+0.5)/1000, 'f', 3, 64)
}

// truncate cuts s to at most n bytes, at a rune boundary, marking the cut.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + " ..."
}
