// Package span is the benchmark-side trace: one span per call the benchmark
// makes into a layer, kept in memory and written out once when the run ends.
// Nothing inside the program is instrumented — the spans wrap calls from
// the benchmark's own files — so the traced run measures the same program
// as the untraced one plus the cost of this package.
package span

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call. Start and End are nanoseconds since the
// recorder's epoch. Parent is the ID of the span that caused this one (0 =
// root); Req groups the spans of one request or page.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder collects spans. It is safe for concurrent use; a nil *Recorder
// records nothing, which is the untraced mode.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns a recorder with room for capacity spans before it
// has to grow.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{epoch: time.Now(), spans: make([]Span, 0, capacity)}
}

// Begin opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Begin(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

// End closes the span Begin returned.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records an already-timed span (the load generator reports a request
// after the fact) and returns its ID.
func (r *Recorder) Add(name string, parent, req int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
	r.mu.Unlock()
	return id
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSON writes the spans as one JSON file.
func (r *Recorder) WriteJSON(path string) error {
	b, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Agg is the per-name roll-up of a set of spans.
type Agg struct {
	Count int
	// TotalNs sums the spans' durations; SelfNs sums their self times.
	TotalNs int64
	SelfNs  int64
}

// Self returns each ended span's self time by span ID: its duration minus
// the part of its interval that its child spans cover. Overlapping children
// (a parallel fan-out) are counted once, and a child is clipped to its
// parent's interval.
func Self(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			continue // never ended
		}
		out[s.ID] = s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// SelfTimes rolls spans up by name.
func SelfTimes(spans []Span) map[string]Agg {
	self := Self(spans)
	out := make(map[string]Agg)
	for _, s := range spans {
		ns, ended := self[s.ID]
		if !ended {
			continue
		}
		a := out[s.Name]
		a.Count++
		a.TotalNs += s.End - s.Start
		a.SelfNs += ns
		out[s.Name] = a
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curStart, curEnd := int64(0), int64(-1)
	for _, k := range kids {
		st, en := k.Start, k.End
		if st < parent.Start {
			st = parent.Start
		}
		if en > parent.End {
			en = parent.End
		}
		if en <= st {
			continue
		}
		if curEnd < curStart || st > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = st, en
			continue
		}
		if en > curEnd {
			curEnd = en
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}
