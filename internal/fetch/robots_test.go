package fetch

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestParseRobotsBasic(t *testing.T) {
	body := `# comment
User-agent: *
Disallow: /private/
Disallow: /tmp
Allow: /private/pub/

User-agent: evilbot
Disallow: /
`
	r := parseRobots(body, "BINGO-go/1.0")
	cases := map[string]bool{
		"/":               true,
		"/public/page":    true,
		"/private/x":      false,
		"/private/pub/ok": true,
		"/tmp/file":       false,
		"/tmpx":           false, // prefix semantics
		"/privateer":      true,  // /private/ has trailing slash
	}
	for path, want := range cases {
		if got := r.Allowed(path); got != want {
			t.Errorf("Allowed(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestParseRobotsAgentSpecific(t *testing.T) {
	body := `User-agent: bingo
Disallow: /only-for-bingo/

User-agent: *
Disallow: /for-everyone/
`
	r := parseRobots(body, "BINGO-go/1.0")
	if r.Allowed("/only-for-bingo/x") {
		t.Error("agent-specific rule ignored")
	}
	if !r.Allowed("/for-everyone/x") {
		t.Error("star group applied despite agent match")
	}
	star := parseRobots(body, "otherbot")
	if star.Allowed("/for-everyone/x") {
		t.Error("star rule ignored for unmatched agent")
	}
	if !star.Allowed("/only-for-bingo/x") {
		t.Error("foreign agent rule applied")
	}
}

func TestParseRobotsMultipleAgentsOneGroup(t *testing.T) {
	body := "User-agent: a\nUser-agent: bingo\nDisallow: /x/\n"
	r := parseRobots(body, "bingo-go")
	if r.Allowed("/x/y") {
		t.Error("shared group not applied")
	}
}

func TestParseRobotsEmptyDisallow(t *testing.T) {
	r := parseRobots("User-agent: *\nDisallow:\n", "bingo")
	if !r.Allowed("/anything") {
		t.Error("empty Disallow must allow everything")
	}
}

func TestNilRulesAllowEverything(t *testing.T) {
	var r *robotsRules
	if !r.Allowed("/x") {
		t.Error("nil rules disallowed")
	}
	empty := &robotsRules{}
	if !empty.Allowed("/x") {
		t.Error("unfetched rules disallowed")
	}
}

func TestFetchRespectsRobots(t *testing.T) {
	tr := &mapTransport{pages: map[string]page{
		"http://a.example/robots.txt": {ctype: "text/plain",
			body: "User-agent: *\nDisallow: /secret/\n"},
		"http://a.example/public":     {ctype: "text/html", body: "<p>open</p>"},
		"http://a.example/secret/doc": {ctype: "text/html", body: "<p>closed</p>"},
	}}
	f := New(Config{Transport: tr, Resolver: testResolver("a.example"), RespectRobots: true}, nil, nil)
	if _, err := f.Fetch(context.Background(), "http://a.example/public"); err != nil {
		t.Fatalf("public fetch failed: %v", err)
	}
	_, err := f.Fetch(context.Background(), "http://a.example/secret/doc")
	if !errors.Is(err, ErrRobots) {
		t.Fatalf("err = %v, want ErrRobots", err)
	}
}

func TestFetchWithoutRobotsTxt(t *testing.T) {
	// host serves no robots.txt (404) -> everything allowed
	tr := &mapTransport{pages: map[string]page{
		"http://a.example/page": {ctype: "text/html", body: "<p>x</p>"},
	}}
	f := New(Config{Transport: tr, Resolver: testResolver("a.example"), RespectRobots: true}, nil, nil)
	if _, err := f.Fetch(context.Background(), "http://a.example/page"); err != nil {
		t.Fatalf("fetch failed: %v", err)
	}
}

func TestRobotsDisabledByDefault(t *testing.T) {
	tr := &mapTransport{pages: map[string]page{
		"http://a.example/robots.txt": {ctype: "text/plain",
			body: "User-agent: *\nDisallow: /\n"},
		"http://a.example/anything": {ctype: "text/html", body: "<p>x</p>"},
	}}
	f := newFetcher(tr, "a.example")
	if _, err := f.Fetch(context.Background(), "http://a.example/anything"); err != nil {
		t.Fatalf("robots applied despite being disabled: %v", err)
	}
}

func TestRobotsFetchedOncePerHost(t *testing.T) {
	tr := &mapTransport{pages: map[string]page{
		"http://a.example/robots.txt": {ctype: "text/plain", body: "User-agent: *\nDisallow: /no/\n"},
	}}
	for i := 0; i < 20; i++ {
		tr.pages["http://a.example/p"+string(rune('a'+i))] = page{ctype: "text/html", body: "<p>" + string(rune('a'+i)) + "</p>"}
	}
	f := New(Config{Transport: tr, Resolver: testResolver("a.example"), RespectRobots: true}, nil, nil)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = f.Fetch(context.Background(), "http://a.example/p"+string(rune('a'+i)))
		}(i)
	}
	wg.Wait()
	// count robots.txt fetches: total calls = 20 pages + robots fetches
	f.robots.mu.Lock()
	cached := len(f.robots.rules)
	f.robots.mu.Unlock()
	if cached != 1 {
		t.Errorf("robots cache entries = %d", cached)
	}
}

// FuzzParseRobots: any robots.txt body parses, for any agent, and Allowed
// answers for any path without a panic. A non-empty Disallow prefix, asked
// as a path, is refused unless an Allow rule of the same text wins the
// tie, and a policy without Disallow rules refuses nothing.
func FuzzParseRobots(f *testing.F) {
	for _, seed := range []struct{ body, agent, path string }{
		{"User-agent: *\nDisallow: /private/\nAllow: /private/pub/\n", "BINGO-go/1.0", "/private/pub/x"},
		{"User-agent: bingo\nDisallow: /only/\n\nUser-agent: *\nDisallow: /all/\n", "bingo-go", "/only/x"},
		{"User-agent: a\nUser-agent: bingo\nDisallow: /x/\n", "BINGO", "/x/y"},
		{"User-agent: *\nDisallow:\n", "bingo", ""},
		{"Disallow: /orphan\n# comment: no group\nUser-agent:\nAllow:/\n", "", "/orphan"},
		{"User-agent: *\r\nDisallow: /a\r\nAllow: /a\r\n", "x", "/a"},
	} {
		f.Add(seed.body, seed.agent, seed.path)
	}
	f.Fuzz(func(t *testing.T, body, agent, path string) {
		r := parseRobots(body, agent)
		r.Allowed(path)
		for _, d := range r.disallows {
			if d == "" {
				continue
			}
			tie := false
			for _, a := range r.allows {
				tie = tie || a == d
			}
			if got := r.Allowed(d); got != tie {
				t.Fatalf("Allowed(%q) = %v with Disallow %q and Allows %q", d, got, d, r.allows)
			}
		}
		if len(r.disallows) == 0 && !r.Allowed(path) {
			t.Fatalf("Allowed(%q) = false with no Disallow rule", path)
		}
	})
}
