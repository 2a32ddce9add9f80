package htmldoc

import (
	"archive/zip"
	"bytes"
	"compress/gzip"
	"net/url"
	"sort"
	"strings"
	"testing"

	"github.com/bingo-search/bingo/internal/fetch"
	"github.com/bingo-search/bingo/internal/urlnorm"
)

// bombText is n bytes of plain text that DEFLATE shrinks a thousandfold.
func bombText(n int) []byte {
	return bytes.Repeat([]byte("word "), n/5)
}

// TestZipBudgetBoundsMemberSum: many members, each under the old
// per-member cap, cannot inflate past one archive budget in sum. The
// document keeps a prefix within it and is marked Truncated.
func TestZipBudgetBoundsMemberSum(t *testing.T) {
	if limit := fetch.DefaultTypeLimits()["application/zip"]; maxArchiveBytes != limit {
		t.Fatalf("archive budget %d, want the zip type limit %d", maxArchiveBytes, limit)
	}
	var zbuf bytes.Buffer
	zw := zip.NewWriter(&zbuf)
	const members, memberBytes = 6, 3 << 20
	for i := 0; i < members; i++ {
		w, err := zw.Create(strings.Repeat("m", i+1) + ".txt")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(bombText(memberBytes)); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	doc, err := Convert("application/zip", zbuf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Text) > maxArchiveBytes || !doc.Truncated {
		t.Fatalf("a %d-byte zip of %d × %d-byte members became %d bytes of text (truncated %v), want at most %d and truncated",
			zbuf.Len(), members, memberBytes, len(doc.Text), doc.Truncated, maxArchiveBytes)
	}
	if len(doc.Text) < maxArchiveBytes/2 {
		t.Fatalf("only %d bytes of text kept, want the budget's worth", len(doc.Text))
	}

	small, err := Convert("application/zip", zipOf(t, "a.txt", "alpha beta"), nil)
	if err != nil || small.Text != "alpha beta" || small.Truncated {
		t.Fatalf("small zip = %+v, %v", small, err)
	}
}

// TestGzipBudget: a gzip body inflating past the budget keeps a prefix
// and is marked Truncated.
func TestGzipBudget(t *testing.T) {
	var gbuf bytes.Buffer
	gw := gzip.NewWriter(&gbuf)
	gw.Name = "big.txt"
	if _, err := gw.Write(bombText(maxArchiveBytes + 1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	doc, err := Convert("application/gzip", gbuf.Bytes(), nil)
	if err != nil || len(doc.Text) > maxArchiveBytes || !doc.Truncated {
		t.Fatalf("gzip bomb: %d bytes of text, truncated %v, %v", len(doc.Text), doc != nil && doc.Truncated, err)
	}
}

func zipOf(t testing.TB, name, body string) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	w, err := zw.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte(body)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzConvert: any body, converted as each MIME type the fetcher admits,
// converts without a panic into text within the archive budget, and every
// link and frame the crawl's resolver returns is already normalized.
func FuzzConvert(f *testing.F) {
	var gz bytes.Buffer
	gw := gzip.NewWriter(&gz)
	gw.Name = "page.html"
	gw.Write([]byte(`<html><a href="../%7Euser/./x">home</a></html>`))
	gw.Close()
	for _, seed := range [][]byte{
		[]byte(`<html><head><base href="/b/"><title>T &amp; U</title></head><body><a href="x/../y?q=1#f">y</a> <a href="HTTP://Other.Example:80/%7Ea/">o</a><iframe src="./f.html"></iframe><p>text &#x10FFFF; &lt;</p></body></html>`),
		[]byte("%SPDF-1.0\nTitle: Paper\nLink: http://a.example/%7Eu/./p.pdf Anchor words\nLink: mailto:x@y\n\nbody text"),
		[]byte("plain  text\twith\nspaces"),
		[]byte(`<a href="//[::1]:80/a%2fb/%2E%2E/c">v6</a><a href="http://u:p@h.example:8080//p/">up</a><frame src="javascript:x">`),
		gz.Bytes(),
		zipOf(f, "a.html", `<a href="http://z.example/./a/../b">z</a>zip text`),
		{},
	} {
		f.Add(seed)
	}
	limits := fetch.DefaultTypeLimits()
	types := make([]string, 0, len(limits))
	for mt := range limits {
		types = append(types, mt)
	}
	sort.Strings(types)
	final, err := url.Parse("http://fuzz.example/dir/page.html")
	if err != nil {
		f.Fatal(err)
	}
	resolve := urlnorm.LinkResolver(final)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, mt := range types {
			doc, err := Convert(mt, body, resolve)
			if err != nil {
				continue
			}
			if len(doc.Text) > maxArchiveBytes {
				t.Fatalf("%s: %d bytes of text from a %d-byte body, past the %d-byte budget", mt, len(doc.Text), len(body), maxArchiveBytes)
			}
			urls := append([]string(nil), doc.Frames...)
			for _, l := range doc.Links {
				urls = append(urls, l.URL)
			}
			for _, u := range urls {
				if n, err := urlnorm.Normalize(u); err != nil || n != u {
					t.Fatalf("%s: resolved link %q normalizes to %q (%v)", mt, u, n, err)
				}
			}
		}
	})
}
