package frontier

import "fmt"

// Registered scheduler names. The scheduler decides which queued link is
// crawled next; everything else — dedup, leases, requeues, PopWait
// parking, Dump/Restore — is shared frontier machinery and identical for
// every policy.
const (
	// SchedulerFIFOPriority is the paper's queue manager (§4.2) and the
	// default: one incoming and one outgoing queue per topic, ordered by
	// decayed parent confidence with FIFO among equals, DNS prefetch fired
	// on promotion to an outgoing queue.
	SchedulerFIFOPriority = "fifo-priority"
	// SchedulerLinkContext is the same queue manager ordered by a link
	// score that blends parent confidence with the similarity of the link's
	// anchor text and URL tokens to the target topic's feature terms
	// (PDD-crawler style link-context relevance prediction).
	SchedulerLinkContext = "link-context"
)

// SchedulerNames lists every registered scheduler, default first.
func SchedulerNames() []string {
	return []string{SchedulerFIFOPriority, SchedulerLinkContext}
}

// ValidateScheduler rejects unknown scheduler names with a listing of the
// valid ones. The empty name is valid and selects the default.
func ValidateScheduler(name string) error {
	switch name {
	case "", SchedulerFIFOPriority, SchedulerLinkContext:
		return nil
	}
	return fmt.Errorf("frontier: unknown scheduler %q (want %v)", name, SchedulerNames())
}

// key orders queued items: seeds first, then higher effective priority,
// then FIFO among equals (lower sequence number first). prio is the
// policy's score of the link, which for fifo-priority is the raw effective
// priority.
type key struct {
	seed bool
	prio float64
	seq  uint64
}

func keyLess(a, b key) bool {
	if a.seed != b.seed {
		return a.seed // seeds order first
	}
	if a.prio != b.prio {
		return a.prio > b.prio // higher priority first
	}
	return a.seq < b.seq // FIFO among equals
}

// Scheduler is the pluggable crawl-ordering policy behind a Frontier: it
// owns only the queue of poppable items and the order they come back out.
// Every method is called with the frontier's mutex held, so implementations
// need no locking of their own, and every ordering decision must be a
// deterministic function of the call sequence (no map iteration, no clocks,
// no randomness) — the chaos suite replays crawls and asserts identical
// result sets.
type Scheduler interface {
	// Name returns the registered scheduler name.
	Name() string
	// Push offers an item with its effective (tunnel-decayed) priority and
	// a frontier-assigned sequence number. A full scheduler either evicts a
	// worse queued item (returning its URL so the frontier can release its
	// dedup entry) or rejects the newcomer (ok=false, counted as an
	// overflow drop).
	Push(it Item, eff float64, seq uint64) (evictedURL string, ok bool)
	// Reinsert re-adds an item that bypasses capacity checks and never
	// fails: Requeue and Restore use it.
	Reinsert(it Item, eff float64, seq uint64)
	// Pop removes and returns the best queued item.
	Pop() (Item, bool)
	// PopTopic removes and returns the best queued item for one topic.
	PopTopic(topic string) (Item, bool)
	// PopWorst removes and returns the item the policy would schedule last,
	// with the effective priority and sequence number it was queued under —
	// the spill tier uses it to move the queue tail to disk.
	PopWorst() (it Item, eff float64, seq uint64, ok bool)
	// Len returns the number of queued items.
	Len() int
	// TopicLen returns the (incoming, outgoing) queue sizes for one topic.
	TopicLen(topic string) (in, out int)
	// Dump streams every queued item in a deterministic order until fn
	// returns false.
	Dump(fn func(Item) bool)
	// Reset discards every queued item. Policy state (link-context's topic
	// term cache) survives a phase switch.
	Reset()
}

// newScheduler builds the named policy: the §4.2 queue manager with the
// policy's score. Unknown names (which ValidateScheduler would have
// rejected) fall back to the default so a Frontier is always usable.
func newScheduler(cfg Config) Scheduler {
	name, score := SchedulerFIFOPriority, func(_ Item, eff float64) float64 { return eff }
	if cfg.Scheduler == SchedulerLinkContext {
		name, score = SchedulerLinkContext, newLinkContextScorer(cfg.TopicTerms).score
	}
	return newFIFOScheduler(name, score, cfg.IncomingLimit, cfg.OutgoingLimit, cfg.Prefetch)
}
