package span

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "leaf", Start: 25, End: 35},
		{ID: 6, Name: "open", Start: 5, End: -1}, // never ended: ignored
	}
	got := SelfTimes(spans)
	if a := got["parent"]; a.Count != 1 || a.TotalNs != 100 || a.SelfNs != 50 {
		t.Errorf("parent = %+v, want total 100 self 50 (children cover 10–50 and 90–100)", a)
	}
	if a := got["child"]; a.Count != 3 || a.TotalNs != 80 || a.SelfNs != 70 {
		t.Errorf("child = %+v, want total 80 self 70 (the leaf covers 10 of span 3)", a)
	}
	if a := got["leaf"]; a.SelfNs != 10 || Self(spans)[5] != 10 {
		t.Errorf("leaf = %+v, want self 10", a)
	}
	if _, ok := got["open"]; ok {
		t.Error("a span that never ended must not be rolled up")
	}
}

func TestRecorderNestsAndNilIsOff(t *testing.T) {
	var off *Recorder
	if id := off.Begin("x", 0, 0); id != 0 {
		t.Errorf("nil recorder Begin = %d, want 0", id)
	}
	off.End(0)
	if off.Spans() != nil {
		t.Error("nil recorder must record nothing")
	}

	r := NewRecorder(4)
	p := r.Begin("outer", 0, 7)
	c := r.Begin("inner", p, 7)
	r.End(c)
	r.End(p)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Start > spans[1].Start || spans[1].End > spans[0].End {
		t.Errorf("inner %+v not inside outer %+v", spans[1], spans[0])
	}
	agg := SelfTimes(spans)
	if agg["outer"].SelfNs != agg["outer"].TotalNs-agg["inner"].TotalNs {
		t.Errorf("outer self %d, want total %d minus inner %d", agg["outer"].SelfNs, agg["outer"].TotalNs, agg["inner"].TotalNs)
	}
}
