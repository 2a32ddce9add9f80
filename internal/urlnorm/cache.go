package urlnorm

import (
	"net/url"
	"strings"

	"github.com/bingo-search/bingo/internal/memo"
)

// The crawler normalizes every extracted hyperlink, and link targets repeat
// heavily (hub pages, navigation links, co-author links), so the parse →
// normalize → serialize round-trip of an absolute http(s) href is memoized
// in one process-wide memo.Memo: at most 131,072 hrefs, nothing reserved.
// A crawl of the default world holds ≈ 7.5k. An unparsable or non-http
// input is remembered as rejected ("").
var hrefs = memo.New("url")

// Cacheable reports whether raw is an absolute http(s) URL, the only inputs
// Normalize results are memoized for (relative references resolve against a
// base, so their result is not a function of the string alone).
func Cacheable(raw string) bool {
	return strings.HasPrefix(raw, "http://") || strings.HasPrefix(raw, "https://")
}

// NormalizeCached returns the canonical form of the absolute URL raw, or
// ok=false when raw does not parse as an http(s) URL, through the
// process-wide memo; callers must have checked Cacheable(raw).
func NormalizeCached(raw string) (string, bool) {
	hrefs.Lookups(1)
	v := hrefs.Get(raw, normalizeAbsolute)
	return v, v != ""
}

// LinkResolver returns the href resolver for a document whose final URL
// (after redirects) is final, in the shape htmldoc.Convert takes: called
// with the document's <base href> ("" when it declares none) and one href,
// it returns the normalized absolute http(s) URL, or ok=false. Absolute
// hrefs don't depend on the document base, and the same targets recur
// across pages, so their normalization is memoized.
func LinkResolver(final *url.URL) func(base, href string) (string, bool) {
	return func(base, href string) (string, bool) {
		if base == "" && Cacheable(href) {
			return NormalizeCached(href)
		}
		from := final
		if base != "" {
			if b, err := final.Parse(base); err == nil {
				from = b
			}
		}
		ref, err := from.Parse(href)
		if err != nil {
			return "", false
		}
		NormalizeURL(ref)
		if ref.Scheme != "http" && ref.Scheme != "https" {
			return "", false
		}
		return ref.String(), true
	}
}

// normalizeAbsolute is NormalizeCached's uncached result: the canonical
// form of raw, or "" when raw is not an http(s) URL.
func normalizeAbsolute(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	NormalizeURL(u)
	if u.Scheme != "http" && u.Scheme != "https" {
		return ""
	}
	return u.String()
}
