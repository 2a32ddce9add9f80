package htmldoc

import (
	"archive/zip"
	"bytes"
	"compress/gzip"
	"strings"
	"testing"

	"github.com/bingo-search/bingo/internal/fetch"
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

func zipOf(t *testing.T, name, body string) []byte {
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
