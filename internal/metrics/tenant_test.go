package metrics

import (
	"fmt"
	"testing"
)

func TestTenantNameLabeling(t *testing.T) {
	for tenant, name := range map[string]string{
		"":       `base_total{tenant="default"}`,
		"movies": `base_total{tenant="movies"}`,
		// Hostile ids cannot break the exporter's line format.
		`a"b{c}` + "\n": `base_total{tenant="a_b_c__"}`,
	} {
		if TenantCounter("base_total", tenant) != NewCounter(name) {
			t.Errorf("tenant %q is not counted in %s", tenant, name)
		}
	}
}

// TestTenantSeriesCap: one base name fans out into at most MaxTenantSeries
// distinct labels; every tenant beyond the cap shares the "other" overflow
// bucket, and tenants that got a series before the cap keep it.
func TestTenantSeriesCap(t *testing.T) {
	base := "cap_test_total"
	overflow := NewCounter(base + `{tenant="` + TenantOverflow + `"}`)
	for i := 0; i < MaxTenantSeries; i++ {
		tenant := fmt.Sprintf("tenant%03d", i)
		if c := TenantCounter(base, tenant); c == overflow || c != NewCounter(base+`{tenant="`+tenant+`"}`) {
			t.Fatalf("tenant %d did not get its own series below the cap", i)
		}
	}
	for i := MaxTenantSeries; i < MaxTenantSeries+10; i++ {
		if TenantCounter(base, fmt.Sprintf("tenant%03d", i)) != overflow {
			t.Fatalf("tenant %d beyond the cap got its own series", i)
		}
	}
	// Established tenants keep their series after saturation.
	if TenantCounter(base, "tenant000") != NewCounter(base+`{tenant="tenant000"}`) {
		t.Error("established tenant lost its series")
	}
	// The cap is per base name, not global.
	if TenantCounter("cap_test_other_total", "fresh") != NewCounter(`cap_test_other_total{tenant="fresh"}`) {
		t.Error("cap leaked across base names")
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

// TestTenantCounterResolvesOnce: asking again for a resolved series
// allocates nothing, and tenants past the cap — ids from outside — share
// the overflow counter without growing the series map.
func TestTenantCounterResolvesOnce(t *testing.T) {
	base := "resolve_once_total"
	TenantCounter(base, "alpha").Inc()
	if n := testing.AllocsPerRun(100, func() { TenantCounter(base, "alpha").Inc() }); n != 0 {
		t.Errorf("TenantCounter of a resolved series: %v allocs per call, want 0", n)
	}
	for i := 0; i < 3*MaxTenantSeries; i++ {
		TenantCounter(base, fmt.Sprintf("outside%d", i)).Inc()
	}
	tenantLabels.mu.Lock()
	n := len(tenantLabels.byBase[base].byLabel)
	tenantLabels.mu.Unlock()
	if n != MaxTenantSeries {
		t.Errorf("%d labels kept for one base, want the cap %d", n, MaxTenantSeries)
	}
	if TenantCounter(base, "outside99") != TenantCounter(base, "outside98") {
		t.Error("tenants past the cap do not share the overflow counter")
	}
}
