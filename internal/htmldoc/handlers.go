package htmldoc

import (
	"archive/zip"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
)

// ErrUnsupportedType is returned by Convert for MIME types the analyzer has
// no handler for (e.g. video or sound files, which the crawler rejects).
var ErrUnsupportedType = errors.New("htmldoc: unsupported content type")

// maxArchiveBytes is the decompressed-bytes budget of one archive, summed
// over its members, against decompression bombs: fetch.DefaultTypeLimits'
// zip and gzip entry, so an archive yields no more text than the largest
// body the fetcher admits for it. Past the budget the document keeps what
// was read within it and is marked Truncated.
const maxArchiveBytes = 8 << 20

// Convert dispatches body to the content handler for mimeType and returns a
// normalized Document. Handlers exist for HTML, plain text, the synthetic
// PDF-like format (SPDF) used by the test corpus, and zip/gzip archives whose
// contained documents are converted recursively and concatenated — this is
// the paper's §2.2 "wide range of content handlers ... converts the
// recognized contents into HTML" pipeline.
func Convert(mimeType string, body []byte, resolve Resolver) (*Document, error) {
	mt := strings.ToLower(mimeType)
	if i := strings.IndexByte(mt, ';'); i >= 0 {
		mt = strings.TrimSpace(mt[:i])
	}
	switch mt {
	case "text/html", "application/xhtml+xml", "":
		return Parse(string(body), resolve), nil
	case "text/plain":
		return parsePlainText(string(body)), nil
	case "application/pdf", "application/x-spdf":
		return parseSPDF(string(body), resolve)
	case "application/msword", "application/vnd.ms-powerpoint":
		// The corpus models office formats with the same marker layout.
		return parseSPDF(string(body), resolve)
	case "application/gzip", "application/x-gzip":
		return convertGzip(body, resolve)
	case "application/zip":
		return convertZip(body, resolve)
	default:
		return nil, fmt.Errorf("%w: %s", ErrUnsupportedType, mt)
	}
}

func parsePlainText(s string) *Document {
	return &Document{Text: collapseSpace(s), Meta: map[string]string{}}
}

// parseSPDF parses the synthetic PDF-like format:
//
//	%SPDF-1.0
//	Title: <title>
//	Link: <url> <anchor words...>     (zero or more)
//	<blank line>
//	<body text>
//
// Real PDFs carry extractable text and outgoing URIs the same way; the
// corpus generator emits this layout so the PDF code path (which the paper
// says improves recall substantially) is exercised end to end.
func parseSPDF(s string, resolve Resolver) (*Document, error) {
	if !strings.HasPrefix(s, "%SPDF") {
		// Opaque binary PDF without extractable text: empty document.
		return &Document{Meta: map[string]string{}}, nil
	}
	doc := &Document{Meta: map[string]string{}}
	lines := strings.SplitN(s, "\n\n", 2)
	header := strings.Split(lines[0], "\n")
	for _, ln := range header[1:] {
		switch {
		case strings.HasPrefix(ln, "Title: "):
			doc.Title = strings.TrimSpace(ln[len("Title: "):])
		case strings.HasPrefix(ln, "Link: "):
			rest := strings.TrimSpace(ln[len("Link: "):])
			url := rest
			anchor := ""
			if i := strings.IndexByte(rest, ' '); i >= 0 {
				url, anchor = rest[:i], strings.TrimSpace(rest[i+1:])
			}
			if !usableHref(url) {
				continue
			}
			if resolve != nil {
				abs, ok := resolve("", url)
				if !ok {
					continue
				}
				url = abs
			}
			doc.Links = append(doc.Links, Link{URL: url, Anchor: anchor})
		}
	}
	if len(lines) == 2 {
		doc.Text = collapseSpace(lines[1])
	}
	return doc, nil
}

// gzipReaders and gzipBufs recycle the decompressor state (the flate
// dictionary is tens of KB) and the output buffer across pages; every
// gzip-served page of a crawl goes through convertGzip, and the downstream
// handlers copy what they keep (string(body)), so the buffer can be reused
// as soon as Convert returns.
var gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}
var gzipBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func convertGzip(body []byte, resolve Resolver) (*Document, error) {
	zr := gzipReaders.Get().(*gzip.Reader)
	if err := zr.Reset(bytes.NewReader(body)); err != nil {
		gzipReaders.Put(zr)
		return nil, fmt.Errorf("htmldoc: gzip: %w", err)
	}
	buf := gzipBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(io.LimitReader(zr, maxArchiveBytes+1))
	name := zr.Name
	zr.Close()
	gzipReaders.Put(zr)
	if err != nil {
		gzipBufs.Put(buf)
		return nil, fmt.Errorf("htmldoc: gzip read: %w", err)
	}
	truncated := buf.Len() > maxArchiveBytes
	data := buf.Bytes()[:min(buf.Len(), maxArchiveBytes)]
	doc, err := Convert(sniffType(name, data), data, resolve)
	gzipBufs.Put(buf)
	if err != nil {
		return nil, err
	}
	doc.Truncated = truncated
	return doc, nil
}

func convertZip(body []byte, resolve Resolver) (*Document, error) {
	zr, err := zip.NewReader(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		return nil, fmt.Errorf("htmldoc: zip: %w", err)
	}
	merged := &Document{Meta: map[string]string{}}
	var texts []string
	budget := int64(maxArchiveBytes)
	for _, f := range zr.File {
		if merged.Truncated {
			break
		}
		rc, err := f.Open()
		if err != nil {
			continue
		}
		data, err := io.ReadAll(io.LimitReader(rc, budget+1))
		rc.Close()
		if int64(len(data)) > budget {
			data = data[:budget]
			merged.Truncated = true
		}
		budget -= int64(len(data))
		if err != nil {
			continue
		}
		sub, err := Convert(sniffType(f.Name, data), data, resolve)
		if err != nil {
			continue
		}
		if merged.Title == "" {
			merged.Title = sub.Title
		}
		if sub.Text != "" {
			texts = append(texts, sub.Text)
		}
		merged.Links = append(merged.Links, sub.Links...)
		merged.Frames = append(merged.Frames, sub.Frames...)
	}
	merged.Text = strings.Join(texts, " ")
	return merged, nil
}

// sniffType guesses a member's MIME type from its file name and content.
func sniffType(name string, data []byte) string {
	lower := strings.ToLower(name)
	switch {
	case strings.HasSuffix(lower, ".html"), strings.HasSuffix(lower, ".htm"):
		return "text/html"
	case strings.HasSuffix(lower, ".pdf"):
		return "application/pdf"
	case strings.HasSuffix(lower, ".txt"):
		return "text/plain"
	}
	if bytes.HasPrefix(data, []byte("%SPDF")) {
		return "application/pdf"
	}
	if bytes.Contains(data[:min(len(data), 256)], []byte("<html")) ||
		bytes.Contains(data[:min(len(data), 256)], []byte("<HTML")) {
		return "text/html"
	}
	return "text/plain"
}
