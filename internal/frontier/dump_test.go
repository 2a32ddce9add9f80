package frontier

import "testing"

// TestDumpRestoreRoundTrip checks that pending work — queued items, a
// requeued item among them, and the dedup set — survives a Dump/Restore
// cycle with ordering and dedup behavior intact.
func TestDumpRestoreRoundTrip(t *testing.T) {
	f := New(Config{})
	f.Push(Item{URL: "http://a.example/1", Topic: "ROOT/db", Priority: 0.9})
	f.Push(Item{URL: "http://a.example/2", Topic: "ROOT/db", Priority: 0.5})
	f.Push(Item{URL: "http://b.example/1", Topic: "ROOT/os", Priority: 0.7, TunnelDepth: 1})
	f.Requeue(Item{URL: "http://slow.example/", Topic: "ROOT/db", Priority: 0.8})

	d := f.Dump()
	if len(d.Items) != 4 || len(d.Seen) != 3 {
		t.Fatalf("dump shape: items=%d seen=%d", len(d.Items), len(d.Seen))
	}

	g := New(Config{})
	g.Restore(d)

	if g.Len() != 4 {
		t.Fatalf("restored Len = %d, want 4", g.Len())
	}
	// Dedup state restored: a re-push of a dumped URL is dropped.
	if g.Push(Item{URL: "http://a.example/1", Topic: "ROOT/db", Priority: 1}) {
		t.Fatal("re-push of seen URL succeeded after restore")
	}
	// Pop order preserved: priorities decide, tunnel decay still applied.
	want := []string{"http://a.example/1", "http://slow.example/", "http://a.example/2", "http://b.example/1"}
	for i, w := range want {
		it, ok := g.Pop()
		if !ok || it.URL != w {
			t.Fatalf("pop %d = %q ok=%v, want %q", i, it.URL, ok, w)
		}
	}
	if _, ok := g.Pop(); ok {
		t.Fatal("restored frontier holds more than the dump")
	}
}
