package frontier

import (
	"context"
	"testing"

	"github.com/bingo-search/bingo/internal/metrics"
)

// TestRequeueImmediate checks that a requeued item is poppable again at
// once with its original priority, queued behind equal-priority items it
// was popped ahead of (a fresh sequence number), and that the round trip is
// accounted as a requeue — never as a drop.
func TestRequeueImmediate(t *testing.T) {
	f := New(DefaultConfig())

	f.Push(Item{URL: "http://a.example/", Topic: "db", Priority: 0.8})
	f.Push(Item{URL: "http://b.example/", Topic: "db", Priority: 0.8})
	f.Push(Item{URL: "http://c.example/", Topic: "db", Priority: 0.1})
	it, ok := f.Pop()
	if !ok || it.URL != "http://a.example/" {
		t.Fatalf("first pop = %q (ok=%v), want a.example", it.URL, ok)
	}

	f.Requeue(it)

	st := f.Stats()
	if st.Queued != 3 || st.Requeued != 1 {
		t.Fatalf("Stats after requeue = %+v, want Queued=3 Requeued=1", st)
	}
	if st.DroppedSeen != 0 || st.DroppedFull != 0 || st.DroppedDepth != 0 {
		t.Fatalf("requeue was counted as a drop: %+v", st)
	}
	// A requeue keeps the URL in the seen set: the same URL offered again via
	// Push is a dedup drop, not a second live copy.
	if f.Push(Item{URL: "http://a.example/", Topic: "db", Priority: 0.8}) {
		t.Fatal("Push of a requeued (seen) URL succeeded")
	}

	want := []string{"http://b.example/", "http://a.example/", "http://c.example/"}
	for i, w := range want {
		got, ok := f.Pop()
		if !ok || got.URL != w {
			t.Fatalf("pop %d = %q (ok=%v), want %q", i, got.URL, ok, w)
		}
		if w == "http://a.example/" && got.Priority != 0.8 {
			t.Fatalf("requeued item came back as %+v", got)
		}
	}
}

// TestRequeueWakesParkedPopWait parks a PopWait caller while the frontier
// is empty but an item is out on lease, then has the lease holder requeue
// its item and finish: the parked caller must get the item instead of
// reporting drain — and drain must follow once it is processed.
func TestRequeueWakesParkedPopWait(t *testing.T) {
	f := New(DefaultConfig())
	f.Push(Item{URL: "http://a.example/", Topic: "db", Priority: 1})
	held, ok := f.PopWait(context.Background())
	if !ok {
		t.Fatal("PopWait failed on a non-empty frontier")
	}

	got := make(chan Item, 1)
	go func() {
		it, ok := f.PopWait(context.Background())
		if ok {
			f.Done()
		}
		got <- it
	}()
	f.Requeue(held)
	f.Done()
	if it := <-got; it.URL != "http://a.example/" {
		t.Fatalf("parked PopWait returned %q, want the requeued item", it.URL)
	}

	// Nothing queued, nothing outstanding: drained.
	if _, ok := f.PopWait(context.Background()); ok {
		t.Fatal("PopWait returned an item from a drained frontier")
	}
}

// TestDropDepthSeparateFromDedup checks that the three drop causes land in
// separate counters, in both the Stats snapshot and the process-wide
// metrics registry.
func TestDropDepthSeparateFromDedup(t *testing.T) {
	seenBefore := metrics.NewCounter("frontier_dropped_seen_total").Value()
	depthBefore := metrics.NewCounter("frontier_dropped_depth_total").Value()
	requeuedBefore := metrics.NewCounter("frontier_requeued_total").Value()

	f := New(DefaultConfig())
	f.Push(Item{URL: "http://a.example/", Topic: "db", Priority: 0.5})
	f.Push(Item{URL: "http://a.example/", Topic: "db", Priority: 0.5}) // dedup drop
	f.DropDepth()                                                      // depth-limit drop
	f.DropDepth()
	f.Requeue(Item{URL: "http://a.example/", Topic: "db", Priority: 0.5})

	st := f.Stats()
	if st.DroppedSeen != 1 || st.DroppedDepth != 2 || st.DroppedFull != 0 {
		t.Fatalf("drop split = seen:%d depth:%d full:%d, want 1/2/0",
			st.DroppedSeen, st.DroppedDepth, st.DroppedFull)
	}
	if st.Requeued != 1 {
		t.Fatalf("Requeued = %d, want 1", st.Requeued)
	}

	if d := metrics.NewCounter("frontier_dropped_seen_total").Value() - seenBefore; d != 1 {
		t.Fatalf("frontier_dropped_seen_total delta = %d, want 1", d)
	}
	if d := metrics.NewCounter("frontier_dropped_depth_total").Value() - depthBefore; d != 2 {
		t.Fatalf("frontier_dropped_depth_total delta = %d, want 2", d)
	}
	if d := metrics.NewCounter("frontier_requeued_total").Value() - requeuedBefore; d != 1 {
		t.Fatalf("frontier_requeued_total delta = %d, want 1", d)
	}
}

// TestResetDiscardsRequeued checks that a phase-switch Reset clears
// requeued items along with the rest of the queues, so nothing from the
// previous phase leaks into the next.
func TestResetDiscardsRequeued(t *testing.T) {
	f := New(DefaultConfig())

	f.Requeue(Item{URL: "http://a.example/", Topic: "db", Priority: 1})
	f.Reset()
	if st := f.Stats(); st.Queued != 0 {
		t.Fatalf("Stats after Reset = %+v, want empty", st)
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("a pre-Reset requeue survived Reset")
	}
}
