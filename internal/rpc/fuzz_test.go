package rpc

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/bingo-search/bingo/internal/search"
)

// FuzzSearchResponse serves arbitrary /rpc/v1/search bodies from a stub
// shard to Client.Search and merges what it accepts, twice over, as the
// coordinator merges two shards' answers. Each body must end in an error
// or in a merge of at most limit hits: never a panic.
func FuzzSearchResponse(f *testing.F) {
	for _, seed := range []string{
		`{"v":2,"candidates":3,"survivors":2,"max_cos":0.9,"max_conf":0.8,"url":["a","b"],"title":["A","B"],"topic":["t","t"],"cos":[0.9,0.5],"conf":[0.1,0.8]}`,
		`{"v":2,"survivors":1,"max_auth":0.4,"url":["a"],"title":["A"],"topic":["t"],"cos":[0.3],"conf":[0.2],"auth":[0.4]}`,
		`{"v":2,"survivors":2,"url":["a","b"],"title":["a","b"],"topic":["t","t"],"cos":[0.5],"conf":[0.1,0.2]}`,
		`{"v":2,"survivors":-5,"max_cos":-1e308,"url":["a"],"title":["a"],"topic":["t"],"cos":[1e308],"conf":[-1e308]}`,
		`{"v":1}`,
		`{"v":2,"url":null}`,
		`[]`,
	} {
		f.Add([]byte(seed), false, uint8(9))
		f.Add([]byte(seed), true, uint8(0))
	}
	var body atomic.Pointer[[]byte]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(*body.Load())
	}))
	defer srv.Close()
	c := NewClient(srv.URL, ClientOptions{HedgeAfter: -1})

	f.Fuzz(func(t *testing.T, raw []byte, auth bool, limit uint8) {
		body.Store(&raw)
		plan := &search.Plan{Limit: 1 + int(limit), Weights: search.DefaultWeights()}
		if auth {
			plan.Weights.Authority = 0.5
		}
		sb, err := c.Search(context.Background(), "g1", plan)
		if err != nil {
			return
		}
		hits, _ := search.MergeSkybands(plan.Weights, search.Bounds{}, plan.Limit, []*search.Skyband{sb, sb})
		if len(hits) > plan.Limit {
			t.Fatalf("%d hits past limit %d", len(hits), plan.Limit)
		}
	})
}
