package metrics

import (
	"strings"
	"sync"
)

// Per-tenant metric series. A multi-portal process wants its counters split
// by tenant (engine_retrains_total{tenant="movies"}), but tenants are
// created at runtime by an admin endpoint, so an unbounded tenant set must
// not translate into an unbounded metric namespace. TenantCounter bounds
// the cardinality: each base name may fan out into at most MaxTenantSeries
// distinct tenant labels; every tenant beyond the cap shares the
// tenant="other" overflow series, so totals stay exact even when the
// per-tenant breakdown saturates. The cap is documented in OPERATIONS.md.

// MaxTenantSeries is the per-base-name cap on distinct tenant labels
// (including "default" but not the "other" overflow bucket).
const MaxTenantSeries = 32

// TenantOverflow is the label value shared by all tenants beyond the cap.
const TenantOverflow = "other"

// tenantSeries is one base name's counters: one per label, at most
// MaxTenantSeries, and the overflow counter every later label shares. A
// label past the cap is kept nowhere, so ids from outside grow no map.
type tenantSeries struct {
	byLabel  map[string]*Counter
	overflow *Counter
}

var tenantLabels = struct {
	mu     sync.Mutex
	byBase map[string]*tenantSeries
}{byBase: make(map[string]*tenantSeries)}

// TenantCounter returns the counter of one tenant's series of base,
// `base{tenant="..."}`, the empty tenant labeled "default" and every id
// sanitized to [A-Za-z0-9._-] so a hostile one cannot break the exporter
// line format. Asking again for a resolved series of an id that needs no
// sanitizing allocates nothing.
func TenantCounter(base, tenant string) *Counter {
	label := sanitizeTenantLabel(tenant)
	tenantLabels.mu.Lock()
	defer tenantLabels.mu.Unlock()
	ts := tenantLabels.byBase[base]
	if ts == nil {
		ts = &tenantSeries{byLabel: make(map[string]*Counter)}
		tenantLabels.byBase[base] = ts
	}
	if c := ts.byLabel[label]; c != nil {
		return c
	}
	if len(ts.byLabel) < MaxTenantSeries {
		c := NewCounter(base + `{tenant="` + label + `"}`)
		ts.byLabel[label] = c
		return c
	}
	if ts.overflow == nil {
		ts.overflow = NewCounter(base + `{tenant="` + TenantOverflow + `"}`)
	}
	return ts.overflow
}

// sanitizeTenantLabel returns tenant's label: "default" for the empty
// tenant, else tenant with each rune outside [A-Za-z0-9._-] replaced by
// '_' (strings.Map returns tenant itself when it replaces none).
func sanitizeTenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '.' || r == '_' || r == '-' {
			return r
		}
		return '_'
	}, tenant)
}
