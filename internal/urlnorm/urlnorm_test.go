package urlnorm

import (
	"net/url"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"HTTP://WWW.Example.COM/Path":     "http://www.example.com/Path",
		"http://a.example:80/x":           "http://a.example/x",
		"https://a.example:443/x":         "https://a.example/x",
		"http://a.example:8080/x":         "http://a.example:8080/x",
		"http://a.example/x#frag":         "http://a.example/x",
		"http://a.example":                "http://a.example/",
		"http://a.example/a/./b":          "http://a.example/a/b",
		"http://a.example/a/../b":         "http://a.example/b",
		"http://a.example/../../b":        "http://a.example/b",
		"http://a.example//double//slash": "http://a.example/double/slash",
		"http://a.example/dir/":           "http://a.example/dir/",
		"http://a.example/x?b=2&a=1":      "http://a.example/x?b=2&a=1", // query preserved
		"http://a.example/a/b/../":        "http://a.example/a/",
		"http://a.example/%7Euser/":       "http://a.example/~user/",
		"http://a.example/%7Euser/./x":    "http://a.example/~user/x",
		"http://a.example/a%2fb/%2E/c":    "http://a.example/a%2Fb/c",
		"http://a.example/%41%62%2D":      "http://a.example/Ab-",
		"http://a.example/sp%20ace!":      "http://a.example/sp%20ace!",
	}
	for in, want := range cases {
		got, err := Normalize(in)
		if err != nil {
			t.Errorf("Normalize(%q) error: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizeErrors(t *testing.T) {
	if _, err := Normalize("http://bad url with spaces and %zz"); err == nil {
		t.Error("invalid URL accepted")
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	inputs := []string{
		"HTTP://A.Example:80/x/./y/../z#f",
		"http://a.example//p//q/",
		"https://b.example:443",
		"http://c.example/%7Euser/page?q=1#top",
		// Once a stale RawPath kept the escape on the first pass and the
		// second pass dropped it.
		"http://a/%7Euser/./x",
		"http://a/%7euser/%2e/x%2f",
		// Dropping ":80" once left the host ":]", which does not parse.
		"http://:]:80/",
	}
	for _, in := range inputs {
		once, err := Normalize(in)
		if err != nil {
			t.Fatal(err)
		}
		twice, err := Normalize(once)
		if err != nil {
			t.Fatalf("re-normalize %q: %v", once, err)
		}
		if once != twice {
			t.Errorf("not idempotent: %q -> %q -> %q", in, once, twice)
		}
	}
}

// Property: normalization is idempotent on every URL it accepts.
func TestNormalizeIdempotentProperty(t *testing.T) {
	f := func(host, path string) bool {
		raw := "http://h" + sanitize(host) + ".example/" + sanitize(path)
		once, err := Normalize(raw)
		if err != nil {
			return true // malformed input out of scope
		}
		twice, err := Normalize(once)
		return err == nil && once == twice
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// sanitize keeps property inputs URL-legal-ish while still exercising
// slashes and dots.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == '/' || r == '.' || r == '-' || r == '_' || r == '~':
			out = append(out, r)
		}
	}
	return string(out)
}

// TestLinkResolver: hrefs resolve against the document's final URL, or
// against its <base href> (itself resolved against the final URL), come
// back normalized, and anything that is not http(s) is refused.
func TestLinkResolver(t *testing.T) {
	final, err := url.Parse("http://www.example.org/dir/page.html")
	if err != nil {
		t.Fatal(err)
	}
	resolve := LinkResolver(final)
	cases := []struct {
		base, href, want string
	}{
		{"", "HTTP://Other.Example:80/a/../b#top", "http://other.example/b"},
		{"", "next.html", "http://www.example.org/dir/next.html"},
		{"", "../up.html#frag", "http://www.example.org/up.html"},
		{"/other/", "x.html", "http://www.example.org/other/x.html"},
		{"http://base.example/b/", "./y.html", "http://base.example/b/y.html"},
		{"http://base.example/b/", "http://abs.example", "http://abs.example/"},
		{"", "mailto:someone@example.org", ""},
		{"", "javascript:void(0)", ""},
		{"", "ftp://files.example/x", ""},
	}
	for _, c := range cases {
		got, ok := resolve(c.base, c.href)
		if ok != (c.want != "") || got != c.want {
			t.Errorf("resolve(%q, %q) = %q, %v; want %q", c.base, c.href, got, ok, c.want)
		}
	}
}

func TestCleanPath(t *testing.T) {
	cases := map[string]string{
		"/":        "/",
		"/a/b":     "/a/b",
		"/a//b":    "/a/b",
		"/a/./b":   "/a/b",
		"/a/../b":  "/b",
		"/../a":    "/a",
		"/a/b/../": "/a/",
		"/a/":      "/a/",
	}
	for in, want := range cases {
		if got := cleanPath(in); got != want {
			t.Errorf("cleanPath(%q) = %q, want %q", in, got, want)
		}
	}
}

// FuzzNormalize: on any input Normalize accepts, normalizing its output
// again changes nothing, and the memoized NormalizeCached agrees with it.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{
		"http://a/%7Euser/./x",
		"HTTP://A.Example:80/x/./y/../z#f",
		"https://b.example:443",
		"http://a.example/a%2fb/%2E%2E/c?q=%7E#frag",
		"http://u:p@[::1]:8080//p/",
		"http://a.example/sp%20ace!'()*",
		"mailto:someone@example.com",
		"/relative/../path",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		once, err := Normalize(raw)
		if Cacheable(raw) {
			got, ok := NormalizeCached(raw)
			if ok != (err == nil) || ok && got != once {
				t.Fatalf("NormalizeCached(%q) = %q, %v; Normalize = %q, %v", raw, got, ok, once, err)
			}
		}
		if err != nil {
			return
		}
		twice, err := Normalize(once)
		if err != nil || twice != once {
			t.Fatalf("not idempotent: %q -> %q -> %q (%v)", raw, once, twice, err)
		}
	})
}
