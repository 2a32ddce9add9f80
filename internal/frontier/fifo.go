package frontier

import "github.com/bingo-search/bingo/internal/rbtree"

// fifoScheduler is the paper's queue manager (§4.2), the one scheduler type
// behind every policy: one large incoming and one small outgoing red-black
// tree per topic, both ordered by the policy's score of a link with FIFO
// among equals. Pop refills every topic's outgoing queue from its incoming
// queue (firing the DNS prefetch hook per promotion), then takes the best
// outgoing head across topics; a full incoming queue evicts its worst entry
// when the newcomer beats it. A policy is only its score function:
// fifo-priority scores a link by its effective priority, link-context by
// linkContextScorer.score.
type fifoScheduler struct {
	name          string
	score         func(it Item, eff float64) float64
	incomingLimit int
	outgoingLimit int
	prefetch      func(url string)
	topics        map[string]*topicQueues
	order         []string // deterministic topic iteration order
}

// queued keeps the raw effective priority next to the item so PopWorst can
// hand the spill tier the policy-independent value it re-inserts under.
type queued struct {
	it  Item
	eff float64
}

type topicQueues struct {
	incoming *rbtree.Tree[key, queued]
	outgoing *rbtree.Tree[key, queued]
}

func newFIFOScheduler(name string, score func(Item, float64) float64, incomingLimit, outgoingLimit int, prefetch func(string)) *fifoScheduler {
	return &fifoScheduler{
		name:          name,
		score:         score,
		incomingLimit: incomingLimit,
		outgoingLimit: outgoingLimit,
		prefetch:      prefetch,
		topics:        make(map[string]*topicQueues),
	}
}

func (s *fifoScheduler) Name() string { return s.name }

func (s *fifoScheduler) topic(name string) *topicQueues {
	tq, ok := s.topics[name]
	if !ok {
		tq = &topicQueues{
			incoming: rbtree.New[key, queued](keyLess),
			outgoing: rbtree.New[key, queued](keyLess),
		}
		s.topics[name] = tq
		s.order = append(s.order, name)
	}
	return tq
}

func (s *fifoScheduler) keyOf(it Item, eff float64, seq uint64) key {
	return key{seed: it.IsSeed, prio: s.score(it, eff), seq: seq}
}

func (s *fifoScheduler) Push(it Item, eff float64, seq uint64) (string, bool) {
	// The topic is registered before the capacity check, exactly like the
	// pre-interface code: a rejected push still pins the topic's place in
	// the deterministic iteration order.
	tq := s.topic(it.Topic)
	k := s.keyOf(it, eff, seq)
	if tq.incoming.Len() >= s.incomingLimit {
		// Evict the worst entry if the newcomer beats it; otherwise reject.
		// The newcomer's seq is always the largest, so among equal
		// priorities keyLess is false and the newcomer is rejected —
		// identical to the legacy worstKey.prio >= prio condition.
		worstKey, worst, ok := tq.incoming.Max()
		if !ok || !keyLess(k, worstKey) {
			return "", false
		}
		tq.incoming.Delete(worstKey)
		tq.incoming.Insert(k, queued{it: it, eff: eff})
		return worst.it.URL, true
	}
	tq.incoming.Insert(k, queued{it: it, eff: eff})
	return "", true
}

// Reinsert re-scores the item: a requeue, a restore or a spill refill
// re-enters the queue under the policy's current opinion of it.
func (s *fifoScheduler) Reinsert(it Item, eff float64, seq uint64) {
	s.topic(it.Topic).incoming.Insert(s.keyOf(it, eff, seq), queued{it: it, eff: eff})
}

func (s *fifoScheduler) Pop() (Item, bool) {
	var bestTopic string
	var bestKey key
	found := false
	for _, name := range s.order {
		tq := s.topics[name]
		s.refill(tq)
		k, _, ok := tq.outgoing.Min()
		if !ok {
			continue
		}
		if !found || keyLess(k, bestKey) {
			bestTopic, bestKey, found = name, k, true
		}
	}
	if !found {
		return Item{}, false
	}
	_, q, _ := s.topics[bestTopic].outgoing.DeleteMin()
	return q.it, true
}

func (s *fifoScheduler) PopTopic(topic string) (Item, bool) {
	tq, ok := s.topics[topic]
	if !ok {
		return Item{}, false
	}
	s.refill(tq)
	_, q, ok := tq.outgoing.DeleteMin()
	return q.it, ok
}

// PopWorst removes the largest key across both tiers of every topic. After
// a Pop refill the incoming tier holds only links pushed since, so its
// maximum is not the queue's tail; taking it would spill the best new links.
func (s *fifoScheduler) PopWorst() (Item, float64, uint64, bool) {
	var worstKey key
	var worstTree *rbtree.Tree[key, queued]
	for _, name := range s.order {
		tq := s.topics[name]
		for _, t := range [2]*rbtree.Tree[key, queued]{tq.incoming, tq.outgoing} {
			k, _, ok := t.Max()
			if ok && (worstTree == nil || keyLess(worstKey, k)) {
				worstKey, worstTree = k, t
			}
		}
	}
	if worstTree == nil {
		return Item{}, 0, 0, false
	}
	_, q, _ := worstTree.DeleteMax()
	return q.it, q.eff, worstKey.seq, true
}

func (s *fifoScheduler) refill(tq *topicQueues) {
	for tq.outgoing.Len() < s.outgoingLimit {
		k, q, ok := tq.incoming.DeleteMin()
		if !ok {
			return
		}
		tq.outgoing.Insert(k, q)
		if s.prefetch != nil {
			s.prefetch(q.it.URL)
		}
	}
}

func (s *fifoScheduler) Len() int {
	n := 0
	for _, name := range s.order {
		tq := s.topics[name]
		n += tq.incoming.Len() + tq.outgoing.Len()
	}
	return n
}

func (s *fifoScheduler) TopicLen(topic string) (int, int) {
	tq, ok := s.topics[topic]
	if !ok {
		return 0, 0
	}
	return tq.incoming.Len(), tq.outgoing.Len()
}

func (s *fifoScheduler) Dump(fn func(Item) bool) {
	for _, name := range s.order {
		tq := s.topics[name]
		cont := true
		tq.outgoing.Ascend(func(_ key, q queued) bool {
			cont = fn(q.it)
			return cont
		})
		if !cont {
			return
		}
		tq.incoming.Ascend(func(_ key, q queued) bool {
			cont = fn(q.it)
			return cont
		})
		if !cont {
			return
		}
	}
}

// Reset drops the queues but keeps the score function: a phase switch
// resumes with link-context's topic-term cache intact.
func (s *fifoScheduler) Reset() {
	s.topics = make(map[string]*topicQueues)
	s.order = nil
}
