package metrics

import (
	"strings"
	"sync"
)

// Per-tenant metric series. A multi-portal process wants its counters split
// by tenant (engine_retrains_total{tenant="movies"}), but tenants are
// created at runtime by an admin endpoint, so an unbounded tenant set must
// not translate into an unbounded metric namespace. TenantName bounds the
// cardinality: each base name may fan out into at most MaxTenantSeries
// distinct tenant labels; every tenant beyond the cap shares the
// tenant="other" overflow series, so totals stay exact even when the
// per-tenant breakdown saturates. The cap is documented in OPERATIONS.md.

// MaxTenantSeries is the per-base-name cap on distinct tenant labels
// (including "default" but not the "other" overflow bucket).
const MaxTenantSeries = 32

// TenantOverflow is the label value shared by all tenants beyond the cap.
const TenantOverflow = "other"

var tenantLabels struct {
	mu     sync.Mutex
	byBase map[string]map[string]struct{}
}

// TenantName renders `base{tenant="..."}` for a tenant-scoped series. The
// empty tenant is the default portal and is labeled "default"; label values
// are sanitized to [A-Za-z0-9._-] so a hostile tenant id cannot break the
// exporter line format; and once a base name has MaxTenantSeries distinct
// labels, further tenants map to the shared TenantOverflow bucket.
func TenantName(base, tenant string) string {
	label := sanitizeTenantLabel(tenant)
	tenantLabels.mu.Lock()
	if tenantLabels.byBase == nil {
		tenantLabels.byBase = make(map[string]map[string]struct{})
	}
	set := tenantLabels.byBase[base]
	if set == nil {
		set = make(map[string]struct{})
		tenantLabels.byBase[base] = set
	}
	if _, ok := set[label]; !ok {
		if len(set) >= MaxTenantSeries {
			label = TenantOverflow
		} else {
			set[label] = struct{}{}
		}
	}
	tenantLabels.mu.Unlock()
	return base + `{tenant="` + label + `"}`
}

// TenantCounter returns the counter for one tenant's series of base.
func TenantCounter(base, tenant string) *Counter {
	return NewCounter(TenantName(base, tenant))
}

func sanitizeTenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	var b strings.Builder
	for _, r := range tenant {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
