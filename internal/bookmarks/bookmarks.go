// Package bookmarks parses the bookmark files a BINGO! crawl starts from
// (§2: "The crawler starts from a user's bookmark file or some other form
// of personalized or community-specific topic directory"). Two formats are
// supported: the classic Netscape bookmark-file HTML (folders become topic
// paths, links become seeds) and a plain-text format with one
// "topic/subtopic<TAB>url" line per seed.
package bookmarks

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Topic is one topic directory entry with its seed URLs.
type Topic struct {
	// Path holds the folder chain, e.g. ["mathematics", "algebra"].
	Path []string
	// Seeds are the bookmark URLs filed under the folder.
	Seeds []string
}

// ParseNetscape reads the classic bookmark-file format:
//
//	<DL><p>
//	  <DT><H3>Data Mining</H3>
//	  <DL><p>
//	    <DT><A HREF="http://...">A researcher</A>
//	  </DL><p>
//	</DL><p>
//
// Folder nesting becomes the topic path; bookmarks outside any folder are
// returned under the path ["bookmarks"]. The parser is forgiving: unknown
// tags are skipped and unbalanced lists are tolerated.
func ParseNetscape(r io.Reader) ([]Topic, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("bookmarks: %w", err)
	}
	src := string(data)
	byPath := map[string]*Topic{}
	var order []string
	var stack []string

	add := func(url string) {
		path := stack
		if len(path) == 0 {
			path = []string{"bookmarks"}
		}
		key := strings.Join(path, "/")
		t, ok := byPath[key]
		if !ok {
			t = &Topic{Path: append([]string(nil), path...)}
			byPath[key] = t
			order = append(order, key)
		}
		t.Seeds = append(t.Seeds, url)
	}

	i := 0
	pendingFolder := false
	var folderName strings.Builder
	for i < len(src) {
		lt := strings.IndexByte(src[i:], '<')
		if lt < 0 {
			if pendingFolder {
				folderName.WriteString(src[i:])
			}
			break
		}
		if pendingFolder {
			folderName.WriteString(src[i : i+lt])
		}
		i += lt
		gt := strings.IndexByte(src[i:], '>')
		if gt < 0 {
			break
		}
		tag := src[i+1 : i+gt]
		i += gt + 1
		lower := strings.ToLower(strings.TrimSpace(tag))
		switch {
		case strings.HasPrefix(lower, "h3"):
			pendingFolder = true
			folderName.Reset()
		case strings.HasPrefix(lower, "/h3"):
			if pendingFolder {
				name := strings.TrimSpace(folderName.String())
				if name == "" {
					name = "unnamed"
				}
				stack = append(stack, sanitizeSegment(name))
				pendingFolder = false
			}
		case strings.HasPrefix(lower, "/dl"):
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		case strings.HasPrefix(lower, "a "), lower == "a":
			if href, ok := attrValue(tag, "href"); ok && href != "" {
				add(href)
			}
		}
	}

	out := make([]Topic, 0, len(order))
	for _, key := range order {
		out = append(out, *byPath[key])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bookmarks: no bookmarks found")
	}
	return out, nil
}

// ParseText reads the plain format: one "topic/path<TAB or spaces>url" per
// line; '#' starts a comment.
func ParseText(r io.Reader) ([]Topic, error) {
	byPath := map[string]*Topic{}
	var order []string
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("bookmarks: line %d: want \"topic/path url\", got %q", line, text)
		}
		key, url := fields[0], fields[1]
		t, ok := byPath[key]
		if !ok {
			segs := strings.Split(key, "/")
			for i, s := range segs {
				segs[i] = sanitizeSegment(s)
			}
			t = &Topic{Path: segs}
			byPath[key] = t
			order = append(order, key)
		}
		t.Seeds = append(t.Seeds, url)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bookmarks: %w", err)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("bookmarks: no bookmarks found")
	}
	sort.Strings(order)
	out := make([]Topic, 0, len(order))
	for _, key := range order {
		out = append(out, *byPath[key])
	}
	return out, nil
}

// attrValue extracts an attribute from a raw tag body. The name matches
// ASCII case-insensitively, on a copy that keeps every byte offset:
// strings.ToLower can change a tag's length (invalid UTF-8, 'İ'), which
// would misplace the value.
func attrValue(tag, name string) (string, bool) {
	lower := []byte(tag)
	for i, c := range lower {
		if 'A' <= c && c <= 'Z' {
			lower[i] = c + 'a' - 'A'
		}
	}
	idx := strings.Index(string(lower), name+"=")
	if idx < 0 {
		return "", false
	}
	rest := tag[idx+len(name)+1:]
	if rest == "" {
		return "", false
	}
	switch rest[0] {
	case '"', '\'':
		q := rest[0]
		if end := strings.IndexByte(rest[1:], q); end >= 0 {
			return rest[1 : 1+end], true
		}
		return rest[1:], true
	default:
		end := strings.IndexAny(rest, " \t\n\r>")
		if end < 0 {
			return rest, true
		}
		return rest[:end], true
	}
}

// sanitizeSegment makes a folder name a valid topic-tree segment.
func sanitizeSegment(s string) string {
	s = strings.TrimSpace(strings.ReplaceAll(s, "/", "-"))
	if s == "" {
		return "unnamed"
	}
	return s
}
