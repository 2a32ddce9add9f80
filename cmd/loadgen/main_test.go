package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// serve starts a server whose handler h sees the index of each request.
func serve(t *testing.T, h func(w http.ResponseWriter, r *http.Request, i int64)) *httptest.Server {
	t.Helper()
	var n atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h(w, r, n.Add(1))
	}))
	t.Cleanup(hs.Close)
	return hs
}

func runArgs(t *testing.T, args ...string) (int, []string) {
	t.Helper()
	var out bytes.Buffer
	code := run(args, &out)
	return code, strings.Split(strings.TrimSpace(out.String()), "\n")
}

// TestShedIsNotAnError: 2xx answers count as ok and 429s as shed, and a run
// of only those passes -fail-on-errors. Every request asks an entry of the
// built-in mix at /search.
func TestShedIsNotAnError(t *testing.T) {
	var mu sync.Mutex
	asked := map[string]bool{}
	hs := serve(t, func(w http.ResponseWriter, r *http.Request, i int64) {
		mu.Lock()
		asked[r.URL.Path+"?"+r.URL.RawQuery] = true
		mu.Unlock()
		if i%3 == 0 {
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	})
	code, lines := runArgs(t, "-target", hs.URL+"/", "-rate", "100", "-duration", "300ms", "-fail-on-errors")
	if code != 0 || len(lines) != 1 {
		t.Fatalf("exit %d, output %q", code, lines)
	}
	if want := "rate 100/s: offered 30, 20 ok, 10 shed, 0 errors;"; !strings.HasPrefix(lines[0], want) {
		t.Fatalf("output %q, want it to start %q", lines[0], want)
	}
	for q := range asked {
		if !strings.HasPrefix(q, "/search?") || !slices.Contains(mix, strings.TrimPrefix(q, "/search?")) {
			t.Fatalf("asked %q, not an entry of the mix at /search", q)
		}
	}
	if len(asked) < 2 {
		t.Fatalf("%d distinct queries asked; the mix has %d", len(asked), len(mix))
	}
}

// TestErrorsFailTheRun: a 5xx or a connection closed without an answer is
// an error, and -fail-on-errors turns any error into exit status 1.
func TestErrorsFailTheRun(t *testing.T) {
	handlers := map[string]func(w http.ResponseWriter, r *http.Request, i int64){
		"500": func(w http.ResponseWriter, _ *http.Request, _ int64) {
			http.Error(w, "boom", http.StatusInternalServerError)
		},
		"closed connection": func(w http.ResponseWriter, _ *http.Request, _ int64) {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
		},
	}
	for name, h := range handlers {
		hs := serve(t, h)
		args := []string{"-target", hs.URL, "-rate", "50", "-duration", "200ms"}
		code, lines := runArgs(t, args...)
		if code != 0 || !strings.Contains(lines[0], "offered 10, 0 ok, 0 shed, 10 errors;") {
			t.Fatalf("%s: exit %d, output %q; want 0 and ten errors", name, code, lines)
		}
		if code, _ := runArgs(t, append(args, "-fail-on-errors")...); code != 1 {
			t.Fatalf("%s: -fail-on-errors exit %d, want 1", name, code)
		}
	}
}

// TestRateSweep: -rate takes a comma-separated sweep and runs one window
// per entry; a bad entry fails before any request is sent.
func TestRateSweep(t *testing.T) {
	var sent atomic.Int64
	hs := serve(t, func(w http.ResponseWriter, _ *http.Request, _ int64) {
		sent.Add(1)
		w.Write([]byte("ok"))
	})
	code, lines := runArgs(t, "-target", hs.URL, "-rate", "10, 20", "-duration", "500ms")
	if code != 0 || len(lines) != 2 ||
		!strings.HasPrefix(lines[0], "rate 10/s: offered 5, 5 ok,") || !strings.HasPrefix(lines[1], "rate 20/s: offered 10, 10 ok,") {
		t.Fatalf("exit %d, output %q", code, lines)
	}
	sent.Store(0)
	for _, bad := range []string{"10,x", "10,0", "-5", ""} {
		if code, _ := runArgs(t, "-target", hs.URL, "-rate", bad, "-duration", "500ms"); code != 2 {
			t.Fatalf("-rate %q: exit %d, want 2", bad, code)
		}
	}
	if code, _ := runArgs(t, "-rate", "10"); code != 2 {
		t.Fatalf("no -target: exit %d, want 2", code)
	}
	if n := sent.Load(); n != 0 {
		t.Fatalf("rejected flags still sent %d requests", n)
	}
}
