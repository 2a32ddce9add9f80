package store

import (
	"fmt"
	"testing"
)

// tenantDoc builds one tenant-tagged row.
func tenantDoc(tenant, u string, terms map[string]int) Document {
	return Document{Tenant: tenant, URL: u, Topic: "ROOT/db", Confidence: 0.5, Terms: terms}
}

// fillTenants inserts n rows spread across the default tenant and two named
// ones, including the same URL stored by different tenants.
func fillTenants(s *Store, n int) {
	tenants := []string{"", "beta", "gamma"}
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("http://t%d.example/p%d", i%7, i)
		s.Insert(tenantDoc(tenants[i%len(tenants)], u, map[string]int{"term": 1 + i%3}))
	}
	// A shared URL: every tenant holds its own row for it.
	for _, tn := range tenants {
		s.Insert(tenantDoc(tn, "http://shared.example/page", map[string]int{"share": 2}))
	}
}

// TestTenantWorkspaceRouting: crawler workspaces route tenant-tagged rows
// to the shard owning the (tenant, url) key, and both tenants' rows of a
// shared URL are retrievable afterwards.
func TestTenantWorkspaceRouting(t *testing.T) {
	s := NewSharded(8)
	w := s.NewWorkspace(8)
	for i := 0; i < 60; i++ {
		u := fmt.Sprintf("http://ws%d.example/p%d", i%5, i)
		tn := ""
		if i%2 == 1 {
			tn = "beta"
		}
		w.Add(tenantDoc(tn, u, map[string]int{"ws": 1}))
	}
	w.Add(tenantDoc("", "http://both.example/x", map[string]int{"x": 1}))
	w.Add(tenantDoc("beta", "http://both.example/x", map[string]int{"x": 2}))
	w.Flush()
	if s.NumDocs() != 62 {
		t.Fatalf("NumDocs = %d", s.NumDocs())
	}
	if s.TenantNumDocs("") != 31 || s.TenantNumDocs("beta") != 31 {
		t.Fatalf("tenant counts %d/%d", s.TenantNumDocs(""), s.TenantNumDocs("beta"))
	}
	a, err := s.GetDoc("", "http://both.example/x")
	if err != nil || a.Terms["x"] != 1 {
		t.Fatalf("default row = %+v, %v", a, err)
	}
	b, err := s.GetDoc("beta", "http://both.example/x")
	if err != nil || b.Terms["x"] != 2 {
		t.Fatalf("beta row = %+v, %v", b, err)
	}
}
