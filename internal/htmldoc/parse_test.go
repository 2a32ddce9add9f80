package htmldoc

import (
	"archive/zip"
	"bytes"
	"compress/gzip"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasicPage(t *testing.T) {
	src := `<!DOCTYPE html>
<html><head><title>Data Mining Group</title>
<meta name="description" content="research on data mining">
</head>
<body>
<h1>Welcome</h1>
<p>We study <b>knowledge discovery</b> and OLAP.</p>
<a href="/papers/clustering.html">Clustering survey</a>
<a href="http://other.example.org/olap">OLAP page</a>
</body></html>`
	doc := Parse(src, nil)
	if doc.Title != "Data Mining Group" {
		t.Errorf("Title = %q", doc.Title)
	}
	if !strings.Contains(doc.Text, "knowledge discovery") {
		t.Errorf("Text missing content: %q", doc.Text)
	}
	if strings.Contains(doc.Text, "Data Mining Group") {
		t.Errorf("title leaked into body text: %q", doc.Text)
	}
	if len(doc.Links) != 2 {
		t.Fatalf("Links = %v, want 2", doc.Links)
	}
	if doc.Links[0].URL != "/papers/clustering.html" || doc.Links[0].Anchor != "Clustering survey" {
		t.Errorf("link[0] = %+v", doc.Links[0])
	}
	if doc.Meta["description"] != "research on data mining" {
		t.Errorf("meta = %v", doc.Meta)
	}
}

func TestParseResolvesLinks(t *testing.T) {
	resolve := func(base, href string) (string, bool) {
		if strings.HasPrefix(href, "http") {
			return href, true
		}
		if strings.HasPrefix(href, "/") {
			return "http://host.example" + href, true
		}
		return "", false
	}
	doc := Parse(`<a href="/x">x</a><a href="relative">r</a><a href="http://a/b">b</a>`, resolve)
	if len(doc.Links) != 2 {
		t.Fatalf("Links = %v", doc.Links)
	}
	if doc.Links[0].URL != "http://host.example/x" {
		t.Errorf("link[0] = %v", doc.Links[0])
	}
}

func TestParseSkipsScriptStyleComments(t *testing.T) {
	src := `<script>var x = "<a href='/fake'>not a link</a>";</script>
<style>.a { color: red }</style>
<!-- <a href="/commented">c</a> -->
<p>real text</p>`
	doc := Parse(src, nil)
	if len(doc.Links) != 0 {
		t.Errorf("Links = %v, want none", doc.Links)
	}
	if doc.Text != "real text" {
		t.Errorf("Text = %q", doc.Text)
	}
}

func TestParseFramesAndBase(t *testing.T) {
	src := `<html><head><base href="http://gray.example/"></head>
<frameset><frame src="left.html"><frame src="right.html"></frameset></html>`
	doc := Parse(src, nil)
	if len(doc.Frames) != 2 || doc.Frames[0] != "left.html" {
		t.Errorf("Frames = %v", doc.Frames)
	}
	if doc.BaseHref != "http://gray.example/" {
		t.Errorf("BaseHref = %q", doc.BaseHref)
	}
}

func TestParseIgnoresUnusableHrefs(t *testing.T) {
	src := `<a href="#top">top</a><a href="javascript:void(0)">js</a>
<a href="mailto:x@y">mail</a><a href="">empty</a><a href="/ok">ok</a>`
	doc := Parse(src, nil)
	if len(doc.Links) != 1 || doc.Links[0].URL != "/ok" {
		t.Errorf("Links = %v", doc.Links)
	}
}

func TestParseMalformedHTML(t *testing.T) {
	cases := []string{
		"<a href='/x'>unclosed anchor",
		"<<<>>>",
		"<a",
		"text < 5 and > 3",
		"<p>nested <a href=/a>one <a href=/b>two</a></p>",
		strings.Repeat("<div>", 1000),
	}
	for _, src := range cases {
		doc := Parse(src, nil) // must not panic
		_ = doc
	}
	// unclosed anchor still yields the link
	doc := Parse("<a href='/x'>unclosed anchor", nil)
	if len(doc.Links) != 1 || doc.Links[0].Anchor != "unclosed anchor" {
		t.Errorf("unclosed anchor: %v", doc.Links)
	}
	// nested anchors: dangling first link is closed when second opens
	doc = Parse("<p>nested <a href=/a>one <a href=/b>two</a></p>", nil)
	if len(doc.Links) != 2 {
		t.Errorf("nested anchors: %v", doc.Links)
	}
}

func TestParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Parse panicked on %q: %v", s, r)
			}
		}()
		Parse(s, nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeEntities(t *testing.T) {
	cases := map[string]string{
		"a &amp; b":        "a & b",
		"&lt;tag&gt;":      "<tag>",
		"&#65;&#66;":       "AB",
		"&#x41;&#x42;":     "AB",
		"&unknown; stays":  "&unknown; stays",
		"no entities":      "no entities",
		"&nbsp;x":          " x",
		"M&uuml;ller":      "Müller",
		"dangling &amp":    "dangling &amp",
		"&":                "&",
		"&#xZZ; not valid": "&#xZZ; not valid",
	}
	for in, want := range cases {
		if got := decodeEntities(in); got != want {
			t.Errorf("decodeEntities(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestConvertPlainText(t *testing.T) {
	doc, err := Convert("text/plain", []byte("hello   world\n\nagain"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Text != "hello world again" {
		t.Errorf("Text = %q", doc.Text)
	}
}

func TestConvertSPDF(t *testing.T) {
	body := "%SPDF-1.0\nTitle: ARIES Recovery\nLink: http://a.example/impl source code\nLink: /rel ignored\n\nThe ARIES algorithm uses write ahead logging."
	doc, err := Convert("application/pdf", []byte(body), nil)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Title != "ARIES Recovery" {
		t.Errorf("Title = %q", doc.Title)
	}
	if len(doc.Links) != 2 || doc.Links[0].Anchor != "source code" {
		t.Errorf("Links = %v", doc.Links)
	}
	if !strings.Contains(doc.Text, "write ahead logging") {
		t.Errorf("Text = %q", doc.Text)
	}
}

func TestConvertOpaquePDF(t *testing.T) {
	doc, err := Convert("application/pdf", []byte("%PDF-1.4 binary junk"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Text != "" || len(doc.Links) != 0 {
		t.Errorf("opaque pdf should be empty, got %+v", doc)
	}
}

func TestConvertUnsupported(t *testing.T) {
	_, err := Convert("video/mpeg", nil, nil)
	if !errors.Is(err, ErrUnsupportedType) {
		t.Errorf("err = %v", err)
	}
	if _, err := Convert("text/html; charset=utf-8", nil, nil); err != nil {
		t.Errorf("text/html with parameters: err = %v", err)
	}
}

func TestConvertGzip(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Name = "paper.html"
	zw.Write([]byte(`<html><title>Gzipped</title><body><a href="/in">inside</a></body></html>`))
	zw.Close()
	doc, err := Convert("application/gzip", buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Title != "Gzipped" || len(doc.Links) != 1 {
		t.Errorf("doc = %+v", doc)
	}
}

func TestConvertGzipCorrupt(t *testing.T) {
	if _, err := Convert("application/gzip", []byte("not gzip"), nil); err == nil {
		t.Error("expected error for corrupt gzip")
	}
}

func TestConvertZip(t *testing.T) {
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	w1, _ := zw.Create("a.html")
	w1.Write([]byte(`<html><title>First</title><body>alpha <a href="/l1">one</a></body></html>`))
	w2, _ := zw.Create("b.txt")
	w2.Write([]byte("beta text"))
	w3, _ := zw.Create("c.pdf")
	w3.Write([]byte("%SPDF-1.0\nTitle: Third\n\ngamma"))
	zw.Close()
	doc, err := Convert("application/zip", buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Title != "First" {
		t.Errorf("Title = %q", doc.Title)
	}
	for _, want := range []string{"alpha", "beta text", "gamma"} {
		if !strings.Contains(doc.Text, want) {
			t.Errorf("Text %q missing %q", doc.Text, want)
		}
	}
	if len(doc.Links) != 1 {
		t.Errorf("Links = %v", doc.Links)
	}
}

func TestSniffType(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"x.html", "", "text/html"},
		{"x.pdf", "", "application/pdf"},
		{"x.txt", "", "text/plain"},
		{"noext", "%SPDF-1.0\n", "application/pdf"},
		{"noext", "<html><body>", "text/html"},
		{"noext", "plain stuff", "text/plain"},
	}
	for _, c := range cases {
		if got := sniffType(c.name, []byte(c.data)); got != c.want {
			t.Errorf("sniffType(%q,%q) = %q, want %q", c.name, c.data, got, c.want)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<html><head><title>Benchmark Page</title></head><body>")
	for i := 0; i < 200; i++ {
		sb.WriteString(`<p>Some paragraph text about database systems and focused crawling.</p><a href="/link">anchor text</a>`)
	}
	sb.WriteString("</body></html>")
	src := sb.String()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse(src, nil)
	}
}

func TestLexerAttributeQuirks(t *testing.T) {
	// unquoted, single-quoted, valueless and duplicate attributes
	doc := Parse(`<a href=/u1 target=_blank>one</a>
<a href='/u2' href="/dup">two</a>
<a disabled href="/u3">three</a>`, nil)
	if len(doc.Links) != 3 {
		t.Fatalf("links = %+v", doc.Links)
	}
	if doc.Links[0].URL != "/u1" || doc.Links[1].URL != "/u2" || doc.Links[2].URL != "/u3" {
		t.Errorf("links = %+v", doc.Links)
	}
}

func TestLexerCaseInsensitiveTags(t *testing.T) {
	doc := Parse(`<A HREF="/x">Anchor</A><TITLE>T</TITLE><SCRIPT>var a="<a href=/no>";</SCRIPT>`, nil)
	if len(doc.Links) != 1 || doc.Links[0].URL != "/x" {
		t.Errorf("links = %+v", doc.Links)
	}
	if doc.Title != "T" {
		t.Errorf("title = %q", doc.Title)
	}
}

func TestUnclosedScriptConsumesRest(t *testing.T) {
	doc := Parse(`before <script>never closed <a href="/hidden">x</a>`, nil)
	if len(doc.Links) != 0 {
		t.Errorf("links = %+v", doc.Links)
	}
	if doc.Text != "before" {
		t.Errorf("text = %q", doc.Text)
	}
}

func TestCommentAcrossTags(t *testing.T) {
	doc := Parse(`a <!-- <title>not</title> --> b <!-- unterminated`, nil)
	if doc.Title != "" {
		t.Errorf("title = %q", doc.Title)
	}
	if !strings.HasPrefix(doc.Text, "a") || !strings.Contains(doc.Text, "b") {
		t.Errorf("text = %q", doc.Text)
	}
}

func TestSelfClosingAndVoidTags(t *testing.T) {
	doc := Parse(`x<br/>y<meta name="k" content="v"/><frame src="/f"/>`, nil)
	if doc.Meta["k"] != "v" {
		t.Errorf("meta = %v", doc.Meta)
	}
	if len(doc.Frames) != 1 || doc.Frames[0] != "/f" {
		t.Errorf("frames = %v", doc.Frames)
	}
	if !strings.Contains(doc.Text, "x") || !strings.Contains(doc.Text, "y") {
		t.Errorf("text = %q", doc.Text)
	}
}

func TestBlockTagsInsertSpaces(t *testing.T) {
	doc := Parse(`<td>cell1</td><td>cell2</td><li>item</li>`, nil)
	for _, want := range []string{"cell1 cell2", "item"} {
		if !strings.Contains(doc.Text, want) {
			t.Errorf("text %q missing %q", doc.Text, want)
		}
	}
	if strings.Contains(doc.Text, "cell1cell2") {
		t.Errorf("block boundary lost: %q", doc.Text)
	}
}

func TestBaseHrefPassedToResolver(t *testing.T) {
	var seenBases []string
	resolve := func(base, href string) (string, bool) {
		seenBases = append(seenBases, base)
		return base + href, true
	}
	src := `<html><head><base href="http://base.example/dir/"></head>
<body><a href="page.html">rel</a><frame src="f.html"></body></html>`
	doc := Parse(src, resolve)
	if len(doc.Links) != 1 || doc.Links[0].URL != "http://base.example/dir/page.html" {
		t.Errorf("links = %+v", doc.Links)
	}
	if len(doc.Frames) != 1 || doc.Frames[0] != "http://base.example/dir/f.html" {
		t.Errorf("frames = %v", doc.Frames)
	}
	for _, b := range seenBases {
		if b != "http://base.example/dir/" {
			t.Errorf("base = %q", b)
		}
	}
	// without <base>, resolver sees ""
	seenBases = nil
	Parse(`<a href="x">x</a>`, resolve)
	if len(seenBases) != 1 || seenBases[0] != "" {
		t.Errorf("bases without <base> = %v", seenBases)
	}
}
