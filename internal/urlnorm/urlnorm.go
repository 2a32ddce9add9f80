// Package urlnorm canonicalizes URLs before they enter the frontier or the
// duplicate detector. The paper's crawler hashes visited URLs (§4.2), so
// trivially different spellings of one address — upper-case hosts, default
// ports, dot-segments, fragments — would either be crawled twice or bloat
// the queues; normalization collapses them first.
package urlnorm

import (
	"fmt"
	"net/url"
	"strings"
)

// Normalize returns the canonical form of raw:
//
//   - scheme and host are lower-cased,
//   - default ports (http:80, https:443) are dropped,
//   - the fragment is removed,
//   - percent-escapes of unreserved characters in the path are decoded,
//     and the hex digits of the other escapes upper-cased,
//   - path dot-segments are resolved and an empty path becomes "/",
//   - consecutive slashes in the path are collapsed.
//
// Normalize is idempotent: Normalize(Normalize(x)) == Normalize(x).
//
// The query string is preserved byte-for-byte (parameter order can be
// semantically significant).
func Normalize(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("urlnorm: %w", err)
	}
	NormalizeURL(u)
	return u.String(), nil
}

// NormalizeURL canonicalizes u in place (see Normalize).
func NormalizeURL(u *url.URL) {
	u.Scheme = strings.ToLower(u.Scheme)
	u.Fragment = ""
	u.RawFragment = ""

	// Lower-case the host and drop the scheme's default port, unless what
	// is left would read as a host with a port of its own: it holds a
	// colon outside an IPv6 literal's brackets (":]:80" must not become
	// ":]", which does not parse).
	host := strings.ToLower(u.Host)
	port := ""
	switch u.Scheme {
	case "http":
		port = ":80"
	case "https":
		port = ":443"
	}
	if h, ok := strings.CutSuffix(host, port); ok && port != "" && (!strings.Contains(h, ":") || strings.HasPrefix(h, "[") && strings.HasSuffix(h, "]")) {
		host = h
	}
	u.Host = host

	if u.Host != "" {
		// One spelling per path: unreserved characters unescaped, dot
		// segments resolved after that (a decoded "%2E" is a dot), and the
		// result kept as the raw path, so EscapedPath — and therefore a
		// re-parse of the output — returns it unchanged.
		p := u.EscapedPath()
		if p == "" {
			p = "/"
		}
		p = cleanPath(normalizeEscapes(p))
		u.Path = p
		if strings.Contains(p, "%") {
			// p is EscapedPath's valid encoding with only unreserved
			// escapes decoded, so it unescapes.
			u.Path, _ = url.PathUnescape(p)
		}
		u.RawPath = p
	}
}

// normalizeEscapes decodes the percent-escapes of unreserved characters
// ("%7E" is "~", RFC 3986 §6.2.2.2) and upper-cases the hex digits of the
// others ("%2f" becomes "%2F"), leaving p otherwise as it is.
func normalizeEscapes(p string) string {
	if !strings.Contains(p, "%") {
		return p
	}
	var b strings.Builder
	b.Grow(len(p))
	for i := 0; i < len(p); i++ {
		if p[i] != '%' || i+2 >= len(p) || !isHex(p[i+1]) || !isHex(p[i+2]) {
			b.WriteByte(p[i])
			continue
		}
		c := unhex(p[i+1])<<4 | unhex(p[i+2])
		if isUnreserved(c) {
			b.WriteByte(c)
		} else {
			b.WriteString(strings.ToUpper(p[i : i+3]))
		}
		i += 2
	}
	return b.String()
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func unhex(c byte) byte {
	switch {
	case c <= '9':
		return c - '0'
	case c >= 'a':
		return c - 'a' + 10
	default:
		return c - 'A' + 10
	}
}

func isUnreserved(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		c == '-' || c == '.' || c == '_' || c == '~'
}

// cleanPath resolves "." and ".." segments and collapses duplicate slashes
// while preserving a trailing slash (which is significant for directories).
// pathIsClean reports whether p is already in canonical form — absolute,
// no empty, "." or ".." segments — so cleanPath can return it unchanged
// without splitting and rejoining.
func pathIsClean(p string) bool {
	if p == "" || p[0] != '/' {
		return false
	}
	for i := 0; i < len(p); i++ {
		if p[i] != '/' {
			continue
		}
		j := i + 1
		if j == len(p) {
			break // a single trailing slash is preserved anyway
		}
		if p[j] == '/' {
			return false // "//"
		}
		if p[j] == '.' {
			if j+1 == len(p) || p[j+1] == '/' {
				return false // "." segment
			}
			if p[j+1] == '.' && (j+2 == len(p) || p[j+2] == '/') {
				return false // ".." segment
			}
		}
	}
	return true
}

func cleanPath(p string) string {
	if pathIsClean(p) {
		return p
	}
	trailing := strings.HasSuffix(p, "/") && p != "/"
	segs := strings.Split(p, "/")
	out := make([]string, 0, len(segs))
	for _, s := range segs {
		switch s {
		case "", ".":
			// skip empty (collapses //) and current-dir segments
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, s)
		}
	}
	res := "/" + strings.Join(out, "/")
	if trailing && res != "/" {
		res += "/"
	}
	return res
}
