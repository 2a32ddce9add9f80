// Package htmldoc implements the BINGO! document analyzer front-end (§2.2):
// a from-scratch HTML tokenizer and parser that extracts visible text,
// hyperlinks with anchor texts, titles, meta information and frame sources,
// plus content handlers that convert non-HTML formats (plain text and the
// synthetic PDF-like format used by the test corpus) into the same document
// representation.
package htmldoc

import (
	"strings"
)

// Link is an extracted hyperlink.
type Link struct {
	// URL is the resolved absolute URL if a base is known, else the raw href.
	URL string
	// Anchor is the visible anchor text inside the <a> element.
	Anchor string
}

// Document is the analyzer's output: everything downstream stages need.
type Document struct {
	Title    string
	Text     string // visible text, whitespace-normalized
	Links    []Link
	Frames   []string // frame/iframe src URLs (the paper treats frames as separate documents)
	Meta     map[string]string
	BaseHref string
	// Truncated marks an archive whose decompressed bytes ran past the
	// budget (maxArchiveBytes): Text holds only what was read within it.
	Truncated bool
}

// tokKind enumerates HTML token kinds.
type tokKind int

const (
	tokText tokKind = iota
	tokStartTag
	tokEndTag
	tokSelfClose
	tokComment
	tokDoctype
)

// attr is one parsed tag attribute (lower-cased key).
type attr struct {
	key, val string
}

// token is one lexical HTML token. attrs aliases a buffer owned by the
// lexer and is only valid until the next token is read.
type token struct {
	kind  tokKind
	data  string // tag name (lower-case) or text content
	attrs []attr // attribute pairs for start tags
}

// attr returns the value of the named attribute.
func (t *token) attr(name string) (string, bool) {
	for _, a := range t.attrs {
		if a.key == name {
			return a.val, true
		}
	}
	return "", false
}

// Resolver turns an href into an absolute URL. base is the document's
// <base href> value ("" when the document declares none); resolution itself
// is delegated to the caller so this package stays independent of URL
// handling policy.
type Resolver func(base, href string) (string, bool)

// Parse tokenizes and assembles src into a Document. The resolve callback,
// when non-nil, is invoked for every link/frame target with the document's
// <base href> (per the HTML spec, <base> appears in <head> and therefore
// before any links it governs); pass nil to keep hrefs raw.
func Parse(src string, resolve Resolver) *Document {
	doc := &Document{Meta: make(map[string]string)}
	var text strings.Builder
	var anchor strings.Builder
	var title strings.Builder
	// Body text is a large fraction of the markup; growing once up front
	// avoids the doubling-copy churn of building it byte by byte.
	text.Grow(len(src) / 2)

	// skip state for <script>, <style> and friends
	inTitle := false
	// The open link, if any. Anchor words accumulate in the shared anchor
	// builder starting at anchorStart — one growing buffer for the whole
	// page instead of a reset-and-regrow cycle per link.
	var curLink Link
	haveLink := false
	anchorStart := 0

	emitSpace := func(b *strings.Builder) {
		if b.Len() > 0 {
			s := b.String()
			if len(s) > 0 && s[len(s)-1] != ' ' {
				b.WriteByte(' ')
			}
		}
	}

	lex := newLexer(src)
	for {
		tk, ok := lex.next()
		if !ok {
			break
		}
		switch tk.kind {
		case tokText:
			t := decodeEntities(tk.data)
			t = collapseSpace(t)
			if t == "" {
				continue
			}
			if inTitle {
				if title.Len() > 0 {
					title.WriteByte(' ')
				}
				title.WriteString(t)
				continue
			}
			if s := text.String(); len(s) > 0 && s[len(s)-1] != ' ' {
				text.WriteByte(' ')
			}
			text.WriteString(t)
			if haveLink {
				if anchor.Len() > anchorStart {
					anchor.WriteByte(' ')
				}
				anchor.WriteString(t)
			}
		case tokStartTag, tokSelfClose:
			switch tk.data {
			case "title":
				if tk.kind == tokStartTag {
					inTitle = true
				}
			case "base":
				if href, ok := tk.attr("href"); ok && doc.BaseHref == "" {
					doc.BaseHref = href
				}
			case "a":
				// Close any dangling link first (unbalanced HTML is common).
				if haveLink {
					finishLink(doc, &curLink, &anchor, anchorStart, resolve)
					haveLink = false
				}
				if href, ok := tk.attr("href"); ok {
					href = strings.TrimSpace(href)
					if usableHref(href) {
						curLink = Link{URL: href}
						haveLink = true
						anchorStart = anchor.Len()
					}
				}
			case "meta":
				nameAttr, _ := tk.attr("name")
				if name := strings.ToLower(nameAttr); name != "" {
					content, _ := tk.attr("content")
					doc.Meta[name] = decodeEntities(content)
				}
			case "frame", "iframe":
				if src, ok := tk.attr("src"); ok {
					src = strings.TrimSpace(src)
					if usableHref(src) {
						if resolve != nil {
							if abs, ok := resolve(doc.BaseHref, src); ok {
								doc.Frames = append(doc.Frames, abs)
							}
						} else {
							doc.Frames = append(doc.Frames, src)
						}
					}
				}
			case "br", "p", "div", "td", "tr", "li", "h1", "h2", "h3", "h4", "h5", "h6":
				emitSpace(&text)
			case "script", "style", "noscript":
				if tk.kind == tokStartTag {
					lex.skipRawText(tk.data)
				}
			}
		case tokEndTag:
			switch tk.data {
			case "title":
				inTitle = false
			case "a":
				if haveLink {
					finishLink(doc, &curLink, &anchor, anchorStart, resolve)
					haveLink = false
				}
			case "p", "div", "td", "tr", "li", "h1", "h2", "h3", "h4", "h5", "h6":
				emitSpace(&text)
			}
		}
	}
	if haveLink {
		finishLink(doc, &curLink, &anchor, anchorStart, resolve)
	}
	doc.Title = strings.TrimSpace(title.String())
	doc.Text = strings.TrimSpace(text.String())
	return doc
}

// finishLink completes the open link whose anchor words occupy
// anchor.String()[start:]. Builder-backed strings stay valid after further
// appends (growth copies out, it never overwrites), so the slice is safe to
// keep without copying.
func finishLink(doc *Document, l *Link, anchor *strings.Builder, start int, resolve Resolver) {
	l.Anchor = strings.TrimSpace(anchor.String()[start:])
	if resolve != nil {
		abs, ok := resolve(doc.BaseHref, l.URL)
		if !ok {
			return
		}
		l.URL = abs
	}
	doc.Links = append(doc.Links, *l)
}

// usableHref filters out fragment-only, javascript: and mailto: targets.
func usableHref(href string) bool {
	if href == "" || href[0] == '#' {
		return false
	}
	lower := strings.ToLower(href)
	for _, p := range []string{"javascript:", "mailto:", "ftp:", "file:", "data:", "tel:"} {
		if strings.HasPrefix(lower, p) {
			return false
		}
	}
	return true
}

// collapseSpace trims and collapses runs of whitespace to single spaces.
// Text nodes that are already collapsed — the overwhelming majority — come
// back as a subslice of the input without building a new string.
func collapseSpace(s string) string {
	start, end := 0, len(s)
	for start < end && asciiSpace(s[start]) {
		start++
	}
	for end > start && asciiSpace(s[end-1]) {
		end--
	}
	s = s[start:end]
	clean := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' {
			if i+1 < len(s) && asciiSpace(s[i+1]) {
				clean = false
				break
			}
		} else if asciiSpace(c) {
			clean = false
			break
		}
	}
	if clean {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	space := false // already trimmed
	for i := 0; i < len(s); i++ {
		c := s[i]
		if asciiSpace(c) {
			if !space {
				b.WriteByte(' ')
				space = true
			}
			continue
		}
		b.WriteByte(c)
		space = false
	}
	return b.String()
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v'
}
