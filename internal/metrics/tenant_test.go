package metrics

import (
	"fmt"
	"testing"
)

func TestTenantNameLabeling(t *testing.T) {
	if got := TenantName("base_total", ""); got != `base_total{tenant="default"}` {
		t.Errorf("default tenant label = %q", got)
	}
	if got := TenantName("base_total", "movies"); got != `base_total{tenant="movies"}` {
		t.Errorf("label = %q", got)
	}
	// Hostile ids cannot break the exporter's line format.
	if got := TenantName("base_total", `a"b{c}`+"\n"); got != `base_total{tenant="a_b_c__"}` {
		t.Errorf("sanitized label = %q", got)
	}
}

// TestTenantSeriesCap: one base name fans out into at most MaxTenantSeries
// distinct labels; every tenant beyond the cap shares the "other" overflow
// bucket, and tenants that got a series before the cap keep it.
func TestTenantSeriesCap(t *testing.T) {
	base := "cap_test_total"
	var first string
	for i := 0; i < MaxTenantSeries; i++ {
		name := TenantName(base, fmt.Sprintf("tenant%03d", i))
		if i == 0 {
			first = name
		}
		if name == base+`{tenant="`+TenantOverflow+`"}` {
			t.Fatalf("tenant %d hit the overflow bucket below the cap", i)
		}
	}
	for i := MaxTenantSeries; i < MaxTenantSeries+10; i++ {
		name := TenantName(base, fmt.Sprintf("tenant%03d", i))
		if name != base+`{tenant="`+TenantOverflow+`"}` {
			t.Fatalf("tenant %d beyond the cap got its own series: %q", i, name)
		}
	}
	// Established tenants keep their series after saturation.
	if got := TenantName(base, "tenant000"); got != first {
		t.Errorf("established tenant lost its series: %q vs %q", got, first)
	}
	// The cap is per base name, not global.
	if got := TenantName("cap_test_other_total", "fresh"); got != `cap_test_other_total{tenant="fresh"}` {
		t.Errorf("cap leaked across base names: %q", got)
	}
}

// TestTenantCounterSeriesIndependent: two tenants' counters of one base
// are distinct registry entries; the same tenant maps to the same counter.
func TestTenantCounterSeriesIndependent(t *testing.T) {
	a := TenantCounter("indep_total", "a")
	b := TenantCounter("indep_total", "b")
	a2 := TenantCounter("indep_total", "a")
	if a == b {
		t.Fatal("two tenants share one counter")
	}
	if a != a2 {
		t.Fatal("same tenant resolved to different counters")
	}
	// Deltas, not absolute values: the registry is process-global, so a
	// second run in the same process (-count=2) starts from the first's.
	a0, b0 := a.Value(), b.Value()
	a.Inc()
	a.Inc()
	b.Inc()
	if da, db := a.Value()-a0, b.Value()-b0; da != 2 || db != 1 {
		t.Fatalf("deltas: a=%d b=%d", da, db)
	}
}
