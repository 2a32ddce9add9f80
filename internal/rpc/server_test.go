package rpc

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
)

// insertFixture serves one in-memory partition.
func insertFixture(t *testing.T) (*store.Store, *httptest.Server) {
	t.Helper()
	st := store.NewSharded(2)
	srv := httptest.NewServer(NewServer(st).Handler())
	t.Cleanup(srv.Close)
	return st, srv
}

// TestInsertDerivesTerms: an insert body carries no term vectors — a
// document's terms do not survive encoding — and the server stores each
// document with the terms its title and text derive.
func TestInsertDerivesTerms(t *testing.T) {
	st, srv := insertFixture(t)
	docs := []store.Document{
		{URL: "http://a.example/", Title: "ARIES Recovery", Text: "write-ahead logging and recovery", Terms: map[string]int{"zzfabricated": 9}},
		{URL: "http://b.example/", Title: "", Text: "transaction transactions"},
	}
	body, err := json.Marshal(&InsertRequest{V: ProtoVersion, Docs: docs})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "zzfabricated") || strings.Contains(string(body), "Terms") {
		t.Fatalf("the insert body carries term vectors: %s", body)
	}
	c := NewClient(srv.URL, ClientOptions{Timeout: 5 * time.Second})
	if _, err := c.Insert(context.Background(), &InsertRequest{Docs: docs}); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		got, err := st.GetByURL(d.URL)
		if want := textproc.DocTerms(d.Title, d.Text); err != nil || !reflect.DeepEqual(got.Terms, want) {
			t.Fatalf("%s stored with terms %v (%v), want %v", d.URL, got.Terms, err, want)
		}
	}
}

// TestInsertRejectsClientTerms: a document that arrives with terms is a
// 400, not a document stored with its terms ignored; so is an insert of
// the previous protocol version, whose documents carried terms.
func TestInsertRejectsClientTerms(t *testing.T) {
	st, srv := insertFixture(t)
	for name, body := range map[string]string{
		"client terms":     `{"v":2,"docs":[{"URL":"http://a.example/","Text":"recovery","Terms":{"recoveri":1}}]}`,
		"protocol version": `{"v":1,"docs":[{"URL":"http://a.example/","Text":"recovery"}]}`,
	} {
		resp, err := http.Post(srv.URL+PathInsert, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || derr != nil || e.Code != CodeBadRequest {
			t.Fatalf("%s: status %d, code %q (%v); want 400 %s", name, resp.StatusCode, e.Code, derr, CodeBadRequest)
		}
	}
	if n := st.NumDocs(); n != 0 {
		t.Fatalf("rejected inserts stored %d documents", n)
	}
}
