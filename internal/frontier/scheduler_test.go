package frontier

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------------
// fifo-priority equivalence: a reference model of the pre-refactor frontier
// ordering semantics, driven by randomized push/pop sequences against the
// real scheduler. The model encodes the legacy contract directly: per-topic
// incoming/outgoing queues ordered by (priority desc, seq asc), outgoing
// refilled to its limit on every pop, eviction only when the newcomer
// strictly beats the incoming queue's worst entry.
// ---------------------------------------------------------------------------

type refEntry struct {
	prio float64
	seq  uint64
	seed bool
	it   Item
}

type refQueues struct {
	incoming []refEntry // kept sorted best-first
	outgoing []refEntry
}

type refModel struct {
	incomingLimit int
	outgoingLimit int
	topics        map[string]*refQueues
	order         []string
}

func newRefModel(incomingLimit, outgoingLimit int) *refModel {
	return &refModel{incomingLimit: incomingLimit, outgoingLimit: outgoingLimit, topics: map[string]*refQueues{}}
}

func refLess(a, b refEntry) bool {
	return keyLess(key{seed: a.seed, prio: a.prio, seq: a.seq}, key{seed: b.seed, prio: b.prio, seq: b.seq})
}

func refInsert(q []refEntry, e refEntry) []refEntry {
	i := 0
	for i < len(q) && refLess(q[i], e) {
		i++
	}
	q = append(q, refEntry{})
	copy(q[i+1:], q[i:])
	q[i] = e
	return q
}

func (m *refModel) topic(name string) *refQueues {
	tq, ok := m.topics[name]
	if !ok {
		tq = &refQueues{}
		m.topics[name] = tq
		m.order = append(m.order, name)
	}
	return tq
}

func (m *refModel) push(it Item, prio float64, seq uint64) (string, bool) {
	tq := m.topic(it.Topic)
	e := refEntry{prio: prio, seq: seq, seed: it.IsSeed, it: it}
	if len(tq.incoming) >= m.incomingLimit {
		worst := tq.incoming[len(tq.incoming)-1]
		if !refLess(e, worst) {
			return "", false
		}
		tq.incoming = tq.incoming[:len(tq.incoming)-1]
		tq.incoming = refInsert(tq.incoming, e)
		return worst.it.URL, true
	}
	tq.incoming = refInsert(tq.incoming, e)
	return "", true
}

func (m *refModel) refill(tq *refQueues) {
	for len(tq.outgoing) < m.outgoingLimit && len(tq.incoming) > 0 {
		tq.outgoing = refInsert(tq.outgoing, tq.incoming[0])
		tq.incoming = tq.incoming[1:]
	}
}

func (m *refModel) pop() (Item, bool) {
	bestIdx := -1
	var best refEntry
	for i, name := range m.order {
		tq := m.topics[name]
		m.refill(tq)
		if len(tq.outgoing) == 0 {
			continue
		}
		if bestIdx < 0 || refLess(tq.outgoing[0], best) {
			bestIdx, best = i, tq.outgoing[0]
		}
	}
	if bestIdx < 0 {
		return Item{}, false
	}
	tq := m.topics[m.order[bestIdx]]
	tq.outgoing = tq.outgoing[1:]
	return best.it, true
}

func (m *refModel) len() int {
	n := 0
	for _, tq := range m.topics {
		n += len(tq.incoming) + len(tq.outgoing)
	}
	return n
}

// testScore returns a fresh instance of a scheduler's score function; two
// instances fed the same push sequence score identically.
func testScore(name string) func(Item, float64) float64 {
	if name == SchedulerLinkContext {
		return newLinkContextScorer(func(string) map[string]float64 {
			return map[string]float64{"databas": 1, "recoveri": 1, "transact": 0.5}
		}).score
	}
	return func(_ Item, eff float64) float64 { return eff }
}

// TestFIFOSchedulerMatchesReferenceModel drives randomized push/pop
// sequences — small capacities so eviction, rejection, refill and
// cross-topic competition all fire — and requires the scheduler to agree
// with the legacy reference model on every single operation. For each
// policy the model is fed the score a second, identically driven scorer
// gives the pushed link.
func TestFIFOSchedulerMatchesReferenceModel(t *testing.T) {
	anchors := []string{"", "database recovery", "transaction logs", "my favourite team"}
	for _, name := range SchedulerNames() {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 30; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)))
				incomingLimit := 1 + rng.Intn(6)
				outgoingLimit := 1 + rng.Intn(3)
				sched := newFIFOScheduler(name, testScore(name), incomingLimit, outgoingLimit, nil)
				model := newRefModel(incomingLimit, outgoingLimit)
				modelScore := testScore(name)
				topics := []string{"ROOT/a", "ROOT/b", "ROOT/c"}
				var seq uint64
				for op := 0; op < 400; op++ {
					if rng.Intn(3) < 2 {
						seq++
						it := Item{
							URL:    fmt.Sprintf("http://h%d.example/p%d", rng.Intn(5), op),
							Topic:  topics[rng.Intn(len(topics))],
							IsSeed: rng.Intn(20) == 0,
							Anchor: anchors[op%len(anchors)],
						}
						prio := float64(rng.Intn(5)) / 4 // few distinct values: equal-priority ties are common
						gotURL, gotOK := sched.Push(it, prio, seq)
						wantURL, wantOK := model.push(it, modelScore(it, prio), seq)
						if gotOK != wantOK || gotURL != wantURL {
							t.Fatalf("trial %d op %d: Push(%s, prio=%v) = (%q, %v), reference model says (%q, %v)",
								trial, op, it.URL, prio, gotURL, gotOK, wantURL, wantOK)
						}
					} else {
						gotIt, gotOK := sched.Pop()
						wantIt, wantOK := model.pop()
						if gotOK != wantOK || gotIt.URL != wantIt.URL {
							t.Fatalf("trial %d op %d: Pop() = (%q, %v), reference model says (%q, %v)",
								trial, op, gotIt.URL, gotOK, wantIt.URL, wantOK)
						}
					}
					if sched.Len() != model.len() {
						t.Fatalf("trial %d op %d: Len %d != model %d", trial, op, sched.Len(), model.len())
					}
				}
				// Drain both completely: the full remaining order must agree.
				for {
					gotIt, gotOK := sched.Pop()
					wantIt, wantOK := model.pop()
					if gotOK != wantOK || gotIt.URL != wantIt.URL {
						t.Fatalf("trial %d drain: Pop() = (%q, %v), reference model says (%q, %v)",
							trial, gotIt.URL, gotOK, wantIt.URL, wantOK)
					}
					if !gotOK {
						break
					}
				}
			}
		})
	}
}

// TestPopWorstTakesGlobalTail: PopWorst must return the lowest-ranked link
// across both tiers. After a Pop refill the incoming tier holds only links
// pushed since, so taking its maximum would hand the spill tier the best
// new link instead of the tail.
func TestPopWorstTakesGlobalTail(t *testing.T) {
	for _, name := range SchedulerNames() {
		t.Run(name, func(t *testing.T) {
			s := newScheduler(Config{Scheduler: name, IncomingLimit: 25000, OutgoingLimit: 1000})
			s.Push(Item{URL: "http://x.example/low", Topic: "ROOT/t"}, 0.1, 1)
			s.Push(Item{URL: "http://x.example/mid", Topic: "ROOT/t"}, 0.5, 2)
			if it, ok := s.Pop(); !ok || it.URL != "http://x.example/mid" {
				t.Fatalf("Pop = %q (ok=%v), want mid", it.URL, ok)
			}
			s.Push(Item{URL: "http://x.example/high", Topic: "ROOT/t"}, 0.9, 3)
			it, eff, seq, ok := s.PopWorst()
			if !ok || it.URL != "http://x.example/low" || eff != 0.1 || seq != 1 {
				t.Fatalf("PopWorst = (%q, %v, %d, %v), want (low, 0.1, 1, true)", it.URL, eff, seq, ok)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Scheduler-generic contracts.
// ---------------------------------------------------------------------------

func newTestFrontier(t *testing.T, scheduler string, mut func(*Config)) *Frontier {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scheduler = scheduler
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg)
}

func TestValidateScheduler(t *testing.T) {
	for _, name := range append(SchedulerNames(), "") {
		if err := ValidateScheduler(name); err != nil {
			t.Errorf("ValidateScheduler(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range []string{"round-robin", "best-first", "value-fn"} {
		err := ValidateScheduler(name)
		if err == nil || !strings.Contains(err.Error(), "[fifo-priority link-context]") {
			t.Errorf("ValidateScheduler(%q) = %v, want an error listing the two valid names", name, err)
		}
	}
}

func TestSchedulerNameReported(t *testing.T) {
	for _, name := range SchedulerNames() {
		f := newTestFrontier(t, name, nil)
		if got := f.sched.Name(); got != name {
			t.Errorf("scheduler name = %q, want %q", got, name)
		}
	}
	// Empty config name falls back to the default.
	if got := newTestFrontier(t, "", nil).sched.Name(); got != SchedulerFIFOPriority {
		t.Errorf("default scheduler name = %q, want %q", got, SchedulerFIFOPriority)
	}
}

// TestSeedsPopFirst: the IsSeed flag must outrank any priority on every
// scheduler.
func TestSeedsPopFirst(t *testing.T) {
	for _, name := range SchedulerNames() {
		t.Run(name, func(t *testing.T) {
			f := newTestFrontier(t, name, nil)
			f.Push(Item{URL: "http://a.example/high", Topic: "ROOT/t", Priority: 0.99})
			f.Push(Item{URL: "http://seed.example/", Topic: "ROOT/t", IsSeed: true})
			f.Push(Item{URL: "http://b.example/low", Topic: "ROOT/t", Priority: 0.01})
			it, ok := f.Pop()
			if !ok || it.URL != "http://seed.example/" {
				t.Fatalf("first pop = %q (ok=%v), want the seed", it.URL, ok)
			}
			if !it.IsSeed {
				t.Error("popped seed lost its IsSeed flag")
			}
		})
	}
}

// TestSeedEvictionProtected: a full queue must never evict a seed in favor
// of an ordinary link.
func TestSeedEvictionProtected(t *testing.T) {
	for _, name := range SchedulerNames() {
		t.Run(name, func(t *testing.T) {
			f := newTestFrontier(t, name, func(c *Config) {
				c.IncomingLimit = 2
				c.OutgoingLimit = 1
			})
			f.Push(Item{URL: "http://seed1.example/", Topic: "ROOT/t", IsSeed: true})
			f.Push(Item{URL: "http://seed2.example/", Topic: "ROOT/t", IsSeed: true})
			if f.Push(Item{URL: "http://late.example/", Topic: "ROOT/t", Priority: 123456}) {
				t.Fatal("ordinary link displaced a seed from a full queue")
			}
			st := f.Stats()
			if st.DroppedFull != 1 {
				t.Fatalf("DroppedFull = %d, want 1", st.DroppedFull)
			}
		})
	}
}

// TestRankSchedulersBasicOrder: every scheduler must pop by decreasing
// score across topics with FIFO among equals. With no topic terms,
// link-context reduces to ordering by effective priority.
func TestRankSchedulersBasicOrder(t *testing.T) {
	for _, name := range SchedulerNames() {
		t.Run(name, func(t *testing.T) {
			f := newTestFrontier(t, name, nil)
			f.Push(Item{URL: "http://a.example/1", Topic: "ROOT/t", Priority: 0.5})
			f.Push(Item{URL: "http://a.example/2", Topic: "ROOT/t", Priority: 0.9})
			f.Push(Item{URL: "http://a.example/3", Topic: "ROOT/t", Priority: 0.5})
			f.Push(Item{URL: "http://a.example/4", Topic: "ROOT/u", Priority: 0.7, TunnelDepth: 1}) // decays to 0.35
			want := []string{"http://a.example/2", "http://a.example/1", "http://a.example/3", "http://a.example/4"}
			for i, w := range want {
				it, ok := f.Pop()
				if !ok || it.URL != w {
					t.Fatalf("pop %d = %q (ok=%v), want %q", i, it.URL, ok, w)
				}
			}
		})
	}
}

// TestRankSchedulerPopTopic: PopTopic under link-context must return that
// topic's best item and leave other topics untouched.
func TestRankSchedulerPopTopic(t *testing.T) {
	f := newTestFrontier(t, SchedulerLinkContext, nil)
	f.Push(Item{URL: "http://a.example/1", Topic: "ROOT/a", Priority: 0.9})
	f.Push(Item{URL: "http://b.example/1", Topic: "ROOT/b", Priority: 0.8})
	f.Push(Item{URL: "http://b.example/2", Topic: "ROOT/b", Priority: 0.95})
	if it, ok := f.PopTopic("ROOT/b"); !ok || it.URL != "http://b.example/2" {
		t.Fatalf("PopTopic(ROOT/b) = %q (ok=%v), want http://b.example/2", it.URL, ok)
	}
	if _, ok := f.PopTopic("ROOT/missing"); ok {
		t.Fatal("PopTopic on unknown topic succeeded")
	}
	if in, out := f.TopicLen("ROOT/b"); in+out != 1 {
		t.Fatalf("ROOT/b TopicLen = (%d, %d), want one link left", in, out)
	}
	if in, out := f.TopicLen("ROOT/a"); in+out != 1 {
		t.Fatalf("ROOT/a TopicLen = (%d, %d), want its link untouched", in, out)
	}
}

// TestLinkContextPrefersTopicalAnchors: with topic terms configured, a link
// whose anchor/URL mention them must outrank a same-confidence link that
// does not.
func TestLinkContextPrefersTopicalAnchors(t *testing.T) {
	f := newTestFrontier(t, SchedulerLinkContext, func(c *Config) {
		c.TopicTerms = func(topic string) map[string]float64 {
			return map[string]float64{"databas": 1, "recoveri": 1, "transact": 1}
		}
	})
	f.Push(Item{URL: "http://x.example/page1", Topic: "ROOT/db", Priority: 0.5, Anchor: "my favourite team"})
	f.Push(Item{URL: "http://x.example/page2", Topic: "ROOT/db", Priority: 0.5, Anchor: "database recovery notes"})
	f.Push(Item{URL: "http://x.example/transactions.html", Topic: "ROOT/db", Priority: 0.5, Anchor: "see also"})
	first, _ := f.Pop()
	second, _ := f.Pop()
	third, _ := f.Pop()
	if first.URL != "http://x.example/page2" {
		t.Fatalf("first pop = %q, want the anchor-matching link", first.URL)
	}
	if second.URL != "http://x.example/transactions.html" {
		t.Fatalf("second pop = %q, want the URL-token-matching link", second.URL)
	}
	if third.URL != "http://x.example/page1" {
		t.Fatalf("third pop = %q, want the off-topic anchor last", third.URL)
	}
}

// TestSchedulerDumpRestoreRoundTrip: Dump/Restore must preserve every
// queued item with its counts for each scheduler.
func TestSchedulerDumpRestoreRoundTrip(t *testing.T) {
	for _, name := range SchedulerNames() {
		t.Run(name, func(t *testing.T) {
			f := newTestFrontier(t, name, nil)
			f.Push(Item{URL: "http://seed.example/", Topic: "ROOT/t", IsSeed: true})
			for i := 0; i < 20; i++ {
				f.Push(Item{URL: fmt.Sprintf("http://h.example/p%d", i), Topic: "ROOT/t", Priority: float64(i) / 20})
			}
			f.Requeue(Item{URL: "http://requeued.example/", Topic: "ROOT/t", Priority: 0.5})
			d := f.Dump()
			if len(d.Items) != 22 {
				t.Fatalf("dump shape: %d items; want 22", len(d.Items))
			}
			g := newTestFrontier(t, name, nil)
			g.Restore(d)
			if g.Len() != 22 {
				t.Fatalf("restored Len = %d, want 22", g.Len())
			}
			it, ok := g.Pop()
			if !ok || !it.IsSeed {
				t.Fatalf("restored first pop = %+v (ok=%v), want the seed", it, ok)
			}
			// Dedup must survive the round trip.
			if g.Push(Item{URL: "http://h.example/p3", Topic: "ROOT/t", Priority: 1}) {
				t.Error("restored frontier re-accepted a seen URL")
			}
		})
	}
}

// TestContextTokens pins the tokenizer: lowercase alphanumeric runs of 3+
// chars, stoplist removed.
func TestContextTokens(t *testing.T) {
	toks := contextTokens("Database RECOVERY", "http://www.cs01.databases.example/aries-log.html")
	want := map[string]bool{"database": true, "recovery": true, "cs01": true, "databases": true, "aries": true, "log": false}
	got := map[string]bool{}
	for _, tok := range toks {
		got[tok] = true
	}
	for w, expect := range want {
		if expect && !got[w] {
			t.Errorf("token %q missing from %v", w, toks)
		}
	}
	for _, bad := range []string{"http", "www", "html", "example"} {
		if got[bad] {
			t.Errorf("stoplisted token %q survived in %v", bad, toks)
		}
	}
}
