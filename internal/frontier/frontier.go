// Package frontier implements BINGO!'s crawl-queue manager (§4.2). The
// frontier owns URL dedup, the outstanding-lease drain protocol, requeues of
// items a crawl took but did not visit, PopWait parking, Dump/Restore
// session persistence and the optional disk-spill tier, while a Scheduler
// decides which queued link is crawled next. There is one scheduler type,
// the paper's queue manager: per-topic incoming/outgoing red-black trees,
// with DNS resolution warmed up only for links promoted to an outgoing
// queue. A policy is the score those trees order by: fifo-priority uses the
// SVM confidence with tunnelled links decayed exponentially per hop (§3.3),
// and link-context blends that with the link's anchor/URL similarity to the
// topic (see DESIGN.md "Frontier scheduling").
//
// Concurrency model: one mutex guards the scheduler and all shared state;
// blocked PopWait callers park on a broadcast pulse channel instead of
// polling, and an outstanding-lease count distinguishes "momentarily empty"
// from "crawl drained". Per-instance activity is reported by Stats;
// process-wide frontier_* metrics (pushed, popped, drops, live queue depth,
// spill traffic) feed the observability layer's /metricsz.
package frontier

import (
	"context"
	"math"
	"sort"
	"sync"

	"github.com/bingo-search/bingo/internal/metrics"
)

// Process-wide frontier metrics, aggregated across every live Frontier (the
// engine runs one per crawl phase). The queued gauge tracks the total number
// of links currently held in any queue (spilled tails included). Drops are
// split by cause — dedup (seen), queue overflow (full), and depth/tunnel
// limits — so a requeue is never mistaken for a drop and chaos tests can
// assert each bucket exactly. The spill counters record tail traffic to and
// from disk; spill_lost counts queued links dropped because a run file tore
// or corrupted.
var (
	mPushed       = metrics.NewCounter("frontier_pushed_total")
	mPopped       = metrics.NewCounter("frontier_popped_total")
	mDroppedFull  = metrics.NewCounter("frontier_dropped_full_total")
	mDroppedSeen  = metrics.NewCounter("frontier_dropped_seen_total")
	mDroppedDepth = metrics.NewCounter("frontier_dropped_depth_total")
	mRequeued     = metrics.NewCounter("frontier_requeued_total")
	mQueued       = metrics.NewGauge("frontier_queued")
	mSpilled      = metrics.NewCounter("frontier_spilled_total")
	mRefilled     = metrics.NewCounter("frontier_refilled_total")
	mSpillRuns    = metrics.NewCounter("frontier_spill_runs_total")
	mSpillErrors  = metrics.NewCounter("frontier_spill_errors_total")
	mSpillLost    = metrics.NewCounter("frontier_spill_lost_total")
	mSpilledNow   = metrics.NewGauge("frontier_spilled")
)

// Item is one frontier entry.
type Item struct {
	URL   string
	Topic string
	// Priority is the SVM confidence of the page the link was found on.
	Priority float64
	// Depth is the link distance from the seed set.
	Depth int
	// TunnelDepth counts consecutive hops through rejected documents.
	TunnelDepth int
	// Referrer is the URL of the page the link was extracted from.
	Referrer string
	// Anchor is the link's anchor text (kept for anchor-text features).
	Anchor string
	// IsSeed marks a bookmark seed URL: every scheduler orders seeds before
	// all other work regardless of priority.
	IsSeed bool
}

// Config sizes the queues and selects the ordering policy.
type Config struct {
	// IncomingLimit caps each topic's incoming queue (paper: 25,000). With
	// a SpillBudget it caps the whole queue, memory and disk together.
	IncomingLimit int
	// OutgoingLimit caps each topic's outgoing queue (paper: 1,000).
	OutgoingLimit int
	// TunnelDecay is the per-step priority decay factor (paper: 0.5).
	TunnelDecay float64
	// Prefetch, when non-nil, is invoked with the URL of every link
	// promoted to an outgoing queue (asynchronous DNS warm-up).
	Prefetch func(url string)

	// Scheduler names the ordering policy (see SchedulerNames); empty
	// selects fifo-priority. Validate with ValidateScheduler — unknown
	// names silently fall back to the default here.
	Scheduler string
	// TopicTerms, when non-nil, supplies a topic's current feature terms
	// with weights; the link-context scheduler matches anchor-text and URL
	// tokens against them. Called with the frontier's lock held — it must
	// not call back into the frontier.
	TopicTerms func(topic string) map[string]float64
	// SpillBudget, when positive, bounds the number of queued links held in
	// memory: the policy's worst items beyond the budget spill to sorted
	// on-disk runs and are merged back as the head drains. 0 keeps the
	// whole queue in memory.
	SpillBudget int
	// SpillDir hosts the spill run files. Empty uses a fresh directory
	// under the OS temp root.
	SpillDir string
}

// DefaultConfig mirrors the paper's tuning.
func DefaultConfig() Config {
	return Config{IncomingLimit: 25000, OutgoingLimit: 1000, TunnelDecay: 0.5}
}

// Frontier is safe for concurrent use.
type Frontier struct {
	mu    sync.Mutex
	cfg   Config
	sched Scheduler
	seq   uint64
	seen  map[string]struct{}
	// pulse is closed and replaced whenever an event that could unblock a
	// PopWait caller occurs (Push, Close, or the outstanding count hitting
	// zero); parked workers wait on it instead of polling.
	pulse chan struct{}
	// outstanding counts items handed out by PopWait whose Done call is
	// still pending; the frontier is drained only when it is empty AND no
	// such item is in flight (an in-flight item may still Push new links).
	outstanding int
	// waiters counts goroutines parked in PopWait; wakeLocked only swaps
	// the pulse channel when someone is actually waiting, keeping Push
	// allocation-free in the common case.
	waiters int
	closed  bool
	// stats
	pushed, popped, droppedFull, droppedSeen, droppedDepth, requeued int64
	spillLost                                                        int64
	peakInMem                                                        int
}

// New returns an empty frontier running the configured scheduler.
func New(cfg Config) *Frontier {
	if cfg.IncomingLimit <= 0 {
		cfg.IncomingLimit = 25000
	}
	if cfg.OutgoingLimit <= 0 {
		cfg.OutgoingLimit = 1000
	}
	if cfg.TunnelDecay <= 0 || cfg.TunnelDecay > 1 {
		cfg.TunnelDecay = 0.5
	}
	f := &Frontier{
		cfg:   cfg,
		seen:  make(map[string]struct{}),
		pulse: make(chan struct{}),
	}
	sched := newScheduler(cfg)
	if cfg.SpillBudget > 0 {
		sched = newSpillScheduler(sched, cfg.IncomingLimit, cfg.SpillBudget, cfg.SpillDir, func(n int) {
			// Called with f.mu held (scheduler calls run under it): items in
			// a torn or corrupt run are gone, so the live gauge and the
			// per-instance ledger must both forget them. Their URLs stay in
			// the seen set — a lost link is not re-crawled this session.
			f.spillLost += int64(n)
			mQueued.Add(-int64(n))
		})
	}
	f.sched = sched
	return f
}

// SpillErr returns the first disk-spill failure, if any (a *SpillError).
// The spill tier degrades loudly instead of stopping the crawl: a write
// failure falls back to unbounded memory, a read failure drops the bad
// run's remainder — either way this error reports it.
func (f *Frontier) SpillErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ss, ok := f.sched.(*spillScheduler); ok {
		return ss.Err()
	}
	return nil
}

// wakeLocked broadcasts to every parked PopWait caller by closing the
// current pulse channel and installing a fresh one. It is a no-op while
// nobody is parked. Callers must hold f.mu.
func (f *Frontier) wakeLocked() {
	if f.waiters == 0 {
		return
	}
	close(f.pulse)
	f.pulse = make(chan struct{})
}

// EffectivePriority applies the exponential tunnelling decay.
func (f *Frontier) EffectivePriority(it Item) float64 {
	if it.TunnelDepth <= 0 {
		return it.Priority
	}
	return it.Priority * math.Pow(f.cfg.TunnelDecay, float64(it.TunnelDepth))
}

// notePeakLocked tracks the in-memory high-water mark — the evidence the
// spill tier's budget is (or is not) bounding queue memory.
func (f *Frontier) notePeakLocked() {
	n := f.memLenLocked()
	if n > f.peakInMem {
		f.peakInMem = n
	}
}

func (f *Frontier) memLenLocked() int {
	if ss, ok := f.sched.(*spillScheduler); ok {
		return ss.MemLen()
	}
	return f.sched.Len()
}

// Push offers a link to the scheduler. URLs already enqueued once in this
// crawl are dropped, as are links the policy ranks below everything in a
// full queue (whose worst entry is evicted otherwise).
func (f *Frontier) Push(it Item) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.seen[it.URL]; dup {
		f.droppedSeen++
		mDroppedSeen.Inc()
		return false
	}
	f.seq++
	evictedURL, ok := f.sched.Push(it, f.EffectivePriority(it), f.seq)
	if !ok {
		f.droppedFull++
		mDroppedFull.Inc()
		return false
	}
	if evictedURL != "" {
		delete(f.seen, evictedURL)
	}
	f.seen[it.URL] = struct{}{}
	f.pushed++
	mPushed.Inc()
	if evictedURL == "" {
		mQueued.Add(1)
	}
	f.notePeakLocked()
	f.wakeLocked()
	return true
}

// Requeue puts a previously popped item straight back, under a fresh
// sequence number and with its original priority. Requeues bypass the seen
// set (the URL is already marked seen from its original Push) and the
// capacity check, and are counted separately from drops. The crawler uses
// it for items it took but did not visit: the page budget ran out, or the
// crawl ended mid-fetch.
func (f *Frontier) Requeue(it Item) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	f.sched.Reinsert(it, f.EffectivePriority(it), f.seq)
	f.requeued++
	mRequeued.Inc()
	mQueued.Add(1)
	f.notePeakLocked()
	f.wakeLocked()
}

// DropDepth records a link discarded for exceeding the depth or tunnelling
// limit. The crawler calls it instead of silently discarding, so depth
// drops are distinguishable from dedup and overflow drops.
func (f *Frontier) DropDepth() {
	f.mu.Lock()
	f.droppedDepth++
	f.mu.Unlock()
	mDroppedDepth.Inc()
}

// popLocked removes and returns the scheduler's best available link.
func (f *Frontier) popLocked() (Item, bool) {
	it, ok := f.sched.Pop()
	if !ok {
		return Item{}, false
	}
	f.popped++
	mPopped.Inc()
	mQueued.Add(-1)
	return it, true
}

// Pop returns the best available link across all topics. It returns
// ok=false when the frontier is empty.
func (f *Frontier) Pop() (Item, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.popLocked()
}

// TryPop is the non-blocking form of PopWait: on success it takes the same
// processing lease (the caller must call Done), and on failure it returns
// immediately instead of parking. A worker can use it to detect "about to
// park" — e.g. to flush its workspace before going idle.
func (f *Frontier) TryPop() (Item, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return Item{}, false
	}
	it, ok := f.popLocked()
	if ok {
		f.outstanding++
	}
	return it, ok
}

// PopWait returns the best available link, parking the caller until one
// arrives instead of polling. It returns ok=false when the frontier has
// drained (empty queues and no PopWait item still being processed), when
// it is closed, or when ctx is cancelled. Every item obtained through PopWait MUST be
// matched by a Done call once processing (including any Pushes of extracted
// links) has finished — the outstanding count is what lets a worker pool
// distinguish "momentarily empty but a peer may still push more" from
// "crawl over".
func (f *Frontier) PopWait(ctx context.Context) (Item, bool) {
	for {
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return Item{}, false
		}
		if it, ok := f.popLocked(); ok {
			f.outstanding++
			f.mu.Unlock()
			return it, true
		}
		if f.outstanding == 0 {
			f.mu.Unlock()
			return Item{}, false // drained: nobody can push anymore
		}
		f.waiters++
		ch := f.pulse
		f.mu.Unlock()
		var cancelled bool
		select {
		case <-ch:
		case <-ctx.Done():
			cancelled = true
		}
		f.mu.Lock()
		f.waiters--
		f.mu.Unlock()
		if cancelled {
			return Item{}, false
		}
	}
}

// Done marks one PopWait item as fully processed. When the last in-flight
// item completes with the queues empty, all parked PopWait callers are
// woken so they can observe the drain and return.
func (f *Frontier) Done() {
	f.mu.Lock()
	if f.outstanding > 0 {
		f.outstanding--
	}
	if f.outstanding == 0 {
		f.wakeLocked()
	}
	f.mu.Unlock()
}

// Close wakes every parked PopWait caller and makes subsequent PopWait
// calls return immediately. Push and Pop keep working (the frontier can be
// drained synchronously after a Close); Reset reopens it.
func (f *Frontier) Close() {
	f.mu.Lock()
	f.closed = true
	f.wakeLocked()
	f.mu.Unlock()
}

// PopTopic returns the best link for one topic only.
func (f *Frontier) PopTopic(topic string) (Item, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	it, ok := f.sched.PopTopic(topic)
	if !ok {
		return Item{}, false
	}
	f.popped++
	mPopped.Inc()
	mQueued.Add(-1)
	return it, true
}

// Len returns the total number of queued links (spilled tail included).
func (f *Frontier) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sched.Len()
}

// TopicLen returns (incoming, outgoing) sizes for one topic. With a spill
// tier only the in-memory share is broken out per topic.
func (f *Frontier) TopicLen(topic string) (in, out int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sched.TopicLen(topic)
}

// Stats summarizes frontier activity. Drops are split by cause; Requeued
// counts items put back untouched (not drops). InMemory/Spilled split Queued across the
// memory/disk boundary, PeakInMemory is the in-memory high-water mark (the
// spill budget's evidence), and SpillLost counts links dropped from torn
// or corrupt spill runs.
type Stats struct {
	Pushed       int64
	Popped       int64
	DroppedFull  int64
	DroppedSeen  int64
	DroppedDepth int64
	Requeued     int64
	Queued       int
	InMemory     int
	Spilled      int
	PeakInMemory int
	SpillLost    int64
}

// Stats returns a snapshot.
func (f *Frontier) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Stats{
		Pushed: f.pushed, Popped: f.popped,
		DroppedFull: f.droppedFull, DroppedSeen: f.droppedSeen,
		DroppedDepth: f.droppedDepth, Requeued: f.requeued,
		Queued:   f.sched.Len(),
		InMemory: f.memLenLocked(), PeakInMemory: f.peakInMem,
		SpillLost: f.spillLost,
	}
	if ss, ok := f.sched.(*spillScheduler); ok {
		st.Spilled = ss.SpilledLen()
	}
	return st
}

// Reset clears all queues but keeps the seen set, which is what the engine
// does when switching from the learning phase to the harvesting phase (the
// crawl is "resumed with the best hubs", not with stale frontier state).
// The link-context term cache also survives the switch.
func (f *Frontier) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	mQueued.Add(-int64(f.sched.Len()))
	f.sched.Reset()
	f.closed = false
}

// Forget removes a URL from the seen set so it can be re-enqueued (used by
// the harvesting phase to re-seed with the best hubs).
func (f *Frontier) Forget(url string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.seen, url)
}

// Dump is a serializable snapshot of the frontier's pending work: queued
// items in the scheduler's deterministic order (topics in first-seen order
// with each topic's outgoing queue before its incoming queue; spilled tails
// are streamed back off disk) and the dedup set. Counters and in-flight leases are
// deliberately excluded — a restored crawl starts its statistics fresh, and
// an in-flight item that was never Done'd is simply lost to the dump (its
// URL stays in Seen).
type Dump struct {
	Items []Item
	Seen  []string
	// Delayed is read, never written: releases that kept a cooling-off
	// heap saved the links it held here (their URLs are in Seen). Restore
	// queues them with Items.
	Delayed []struct{ Item Item }
}

// Dump captures the frontier's pending work for session persistence.
func (f *Frontier) Dump() Dump {
	f.mu.Lock()
	defer f.mu.Unlock()
	var d Dump
	f.sched.Dump(func(it Item) bool {
		d.Items = append(d.Items, it)
		return true
	})
	d.Seen = make([]string, 0, len(f.seen))
	for url := range f.seen {
		d.Seen = append(d.Seen, url)
	}
	sort.Strings(d.Seen)
	return d
}

// Restore reloads a Dump into an empty (or Reset) frontier: queued items
// re-enter the scheduler with their effective priorities (re-spilling past
// the budget as needed) and the seen set is replaced. Items whose URLs the dump also lists as seen do not
// double-drop: Restore inserts directly, bypassing Push's dedup check.
func (f *Frontier) Restore(d Dump) {
	f.mu.Lock()
	defer f.mu.Unlock()
	items := d.Items
	for _, dd := range d.Delayed {
		items = append(items, dd.Item)
	}
	for _, it := range items {
		f.seq++
		f.sched.Reinsert(it, f.EffectivePriority(it), f.seq)
	}
	for _, url := range d.Seen {
		f.seen[url] = struct{}{}
	}
	mQueued.Add(int64(len(items)))
	f.notePeakLocked()
	f.wakeLocked()
}
