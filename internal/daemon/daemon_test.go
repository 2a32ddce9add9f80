package daemon

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMountOps: every daemon's ops surface answers, the profiler's named
// handlers included (a mux holding only pprof.Index answers 404 on them).
func TestMountOps(t *testing.T) {
	mux := http.NewServeMux()
	MountOps(mux)
	for _, path := range []string{"/metricsz", "/tracez", "/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Errorf("%s: %d, want 200", path, w.Code)
		}
	}
}

// TestRunDrains: Run serves /readyz 200 once the port file appears; after
// ctx ends readiness answers 503 while an in-flight request still
// completes, and Run returns only after the drain.
func TestRunDrains(t *testing.T) {
	var gate Gate
	started, release := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	gate.MountHealth(mux)
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		w.Write([]byte("done"))
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	portFile := filepath.Join(t.TempDir(), "port")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- Run(ctx, ln, mux, &gate, portFile, 5*time.Second) }()

	var addr []byte
	for deadline := time.Now().Add(5 * time.Second); len(addr) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("port file never written")
		}
		addr, _ = os.ReadFile(portFile)
	}
	base := "http://" + string(addr)
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz while serving: %d, want 200", resp.StatusCode)
	}

	slow := make(chan string, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			slow <- err.Error()
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		slow <- string(b)
	}()
	<-started
	cancel()
	for deadline := time.Now().Add(5 * time.Second); gate.Ready(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("readiness never flipped after ctx ended")
		}
	}
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d, want 503", w.Code)
	}
	select {
	case err := <-runErr:
		t.Fatalf("Run returned with a request in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if got := <-slow; got != "done" {
		t.Fatalf("in-flight request: %q, want done", got)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after the drain")
	}
}
