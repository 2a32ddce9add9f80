package frontier

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/bingo-search/bingo/internal/rbtree"
	"github.com/bingo-search/bingo/internal/segment"
)

// The disk-spill tier (the BUbiNG lesson: frontier size must not be a RAM
// cost). A spillScheduler wraps any Scheduler and enforces a hard in-memory
// budget B: when the wrapped queue exceeds its hot share, the policy's
// worst items move to a small in-memory cold buffer, and each time the
// buffer fills it is flushed — in priority order — into an immutable sorted
// on-disk run (CRC-framed WAL records, one item per record). When the hot
// queue drains, a k-way merge over the cold buffer and the run heads
// refills it best-first. Layout per run file:
//
//	"BWAL" header, then one record per item:
//	  version u8 | url | topic | priority f64 | depth | tunnelDepth |
//	  referrer | anchor | isSeed | eff f64 | seq uvarint
//
// Ordering across the memory/disk boundary is relaxed: the hot queue is
// always served before disk, and spilled items are ordered by raw effective
// priority rather than the live policy score. Within the budget the policy
// is exact; the tail it would starve anyway is merely approximate.
//
// Failure discipline: spill I/O errors never panic and never stop the
// crawl. A write failure moves the cold buffer back into the hot queue and
// disables further spilling (memory grows, loudly: sticky error, metric). A
// read failure — a torn or corrupt run — delivers the durable prefix,
// counts the lost remainder, and surfaces a typed *SpillError through
// Frontier.SpillErr.

// SpillError describes a failure in the frontier's disk-spill tier.
type SpillError struct {
	// Op is the failing operation: "create-dir", "write-run" or "read-run".
	Op string
	// Path is the spill directory or run file involved.
	Path string
	// Err is the underlying cause (wrapping segment.ErrTornWAL for a
	// truncated run, *segment.CorruptError for a CRC mismatch).
	Err error
}

// Error formats the failure.
func (e *SpillError) Error() string {
	return fmt.Sprintf("frontier: spill %s %s: %v", e.Op, e.Path, e.Err)
}

// Unwrap returns the underlying cause.
func (e *SpillError) Unwrap() error { return e.Err }

const spillEntryVersion = 2

func encodeSpillEntry(e *segment.Enc, it Item, eff float64, seq uint64) {
	e.Byte(spillEntryVersion)
	e.Str(it.URL)
	e.Str(it.Topic)
	e.F64(it.Priority)
	e.Varint(int64(it.Depth))
	e.Varint(int64(it.TunnelDepth))
	e.Str(it.Referrer)
	e.Str(it.Anchor)
	e.Bool(it.IsSeed)
	e.F64(eff)
	e.Uvarint(seq)
}

func decodeSpillEntry(payload []byte, path string) (Item, float64, uint64, error) {
	d := segment.NewDecoder(payload, path)
	if v := d.Byte(); v != spillEntryVersion {
		if d.Err() == nil {
			return Item{}, 0, 0, fmt.Errorf("frontier: spill run %s: unsupported entry version %d", path, v)
		}
	}
	var it Item
	it.URL = d.Str()
	it.Topic = d.Str()
	it.Priority = d.F64()
	it.Depth = int(d.Varint())
	it.TunnelDepth = int(d.Varint())
	it.Referrer = d.Str()
	it.Anchor = d.Str()
	it.IsSeed = d.Bool()
	eff := d.F64()
	seq := d.Uvarint()
	if err := d.Err(); err != nil {
		return Item{}, 0, 0, err
	}
	if it.URL == "" {
		return Item{}, 0, 0, fmt.Errorf("frontier: spill run %s: entry with empty URL", path)
	}
	return it, eff, seq, nil
}

// spillRun is one immutable sorted run on disk. remaining counts unread
// records (including a loaded head); headOff is the file offset of the
// first unread record, so Dump can stream the run without consuming it.
type spillRun struct {
	path      string
	rd        *segment.WALReader
	head      Item
	headEff   float64
	headSeq   uint64
	headOK    bool
	headOff   int64
	remaining int
	failed    bool
}

type spillScheduler struct {
	inner Scheduler
	// limit caps the TOTAL queue (memory + disk) — the wrapped scheduler's
	// IncomingLimit role; budget caps the in-memory share.
	limit  int
	budget int
	hot    int // in-memory target for the wrapped scheduler
	batch  int // cold-buffer size that triggers a run flush
	dir    string
	ownDir bool // dir was created by us under the OS temp root
	cold   *rbtree.Tree[key, Item]
	runs   []*spillRun
	runSeq int
	// spilled counts records currently on disk across all runs.
	spilled int
	err     error // first spill failure, sticky
	// writeDisabled stops further spilling after a write failure.
	writeDisabled bool
	// onLost tells the owning Frontier (with its mutex already held) that n
	// queued items were lost to a bad run, so gauges stay honest.
	onLost func(n int)
}

func newSpillScheduler(inner Scheduler, limit, budget int, dir string, onLost func(int)) *spillScheduler {
	if budget < 32 {
		budget = 32
	}
	batch := budget / 4
	if batch < 16 {
		batch = 16
	}
	s := &spillScheduler{
		inner:  inner,
		limit:  limit,
		budget: budget,
		hot:    budget - batch,
		batch:  batch,
		cold:   rbtree.New[key, Item](keyLess),
		onLost: onLost,
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "bingo-frontier-")
		if err != nil {
			s.fail("create-dir", os.TempDir(), err)
			s.writeDisabled = true
			return s
		}
		s.dir = tmp
		s.ownDir = true
	} else {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			s.fail("create-dir", dir, err)
			s.writeDisabled = true
			return s
		}
		s.dir = dir
	}
	return s
}

func (s *spillScheduler) Name() string { return s.inner.Name() }

func (s *spillScheduler) fail(op, path string, err error) {
	mSpillErrors.Inc()
	if s.err == nil {
		s.err = &SpillError{Op: op, Path: path, Err: err}
	}
}

func (s *spillScheduler) Push(it Item, eff float64, seq uint64) (string, bool) {
	if s.Len() >= s.limit {
		// Full across both tiers. Disk runs are immutable, so the
		// evict-or-reject decision is made against the in-memory worst: an
		// approximation of the unwrapped scheduler's global eviction.
		wit, weff, wseq, ok := s.inner.PopWorst()
		if !ok {
			return "", false
		}
		nk := key{seed: it.IsSeed, prio: eff, seq: seq}
		wk := key{seed: wit.IsSeed, prio: weff, seq: wseq}
		if !keyLess(nk, wk) {
			s.inner.Reinsert(wit, weff, wseq)
			return "", false
		}
		s.inner.Reinsert(it, eff, seq)
		s.maybeSpill()
		return wit.URL, true
	}
	evictedURL, ok := s.inner.Push(it, eff, seq)
	if ok {
		s.maybeSpill()
	}
	return evictedURL, ok
}

func (s *spillScheduler) Reinsert(it Item, eff float64, seq uint64) {
	s.inner.Reinsert(it, eff, seq)
	s.maybeSpill()
}

// maybeSpill restores the in-memory invariant: the wrapped queue holds at
// most hot items and the cold buffer at most batch, so memory never exceeds
// hot+batch = budget.
func (s *spillScheduler) maybeSpill() {
	if s.writeDisabled {
		return
	}
	for s.inner.Len() > s.hot {
		it, eff, seq, ok := s.inner.PopWorst()
		if !ok {
			return
		}
		s.cold.Insert(key{seed: it.IsSeed, prio: eff, seq: seq}, it)
		if s.cold.Len() >= s.batch {
			s.flushCold()
			if s.writeDisabled {
				return
			}
		}
	}
}

// flushCold writes the cold buffer as one sorted run, best item first. On
// any write error the run file is removed, the buffer moves back into the
// hot queue (memory overshoots, loudly), and spilling is disabled.
func (s *spillScheduler) flushCold() {
	if s.cold.Len() == 0 {
		return
	}
	path := filepath.Join(s.dir, fmt.Sprintf("run-%08d.wal", s.runSeq))
	s.runSeq++
	w, err := segment.CreateWAL(path)
	if err != nil {
		s.spillWriteFailed(path, err)
		return
	}
	var e segment.Enc
	n := 0
	var werr error
	s.cold.Ascend(func(k key, it Item) bool {
		e.Reset()
		encodeSpillEntry(&e, it, k.prio, k.seq)
		if err := w.Append(e.Bytes(), false); err != nil {
			werr = err
			return false
		}
		n++
		return true
	})
	if cerr := w.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(path)
		s.spillWriteFailed(path, werr)
		return
	}
	s.runs = append(s.runs, &spillRun{path: path, remaining: n, headOff: segment.WALDataStart})
	s.spilled += n
	s.cold = rbtree.New[key, Item](keyLess)
	mSpilled.Add(int64(n))
	mSpillRuns.Inc()
	mSpilledNow.Add(int64(n))
}

func (s *spillScheduler) spillWriteFailed(path string, err error) {
	s.fail("write-run", path, err)
	s.writeDisabled = true
	// Degrade to unbounded memory rather than losing queued links: the cold
	// buffer rejoins the hot queue.
	s.cold.Ascend(func(k key, it Item) bool {
		s.inner.Reinsert(it, k.prio, k.seq)
		return true
	})
	s.cold = rbtree.New[key, Item](keyLess)
}

// loadHead stages a run's next record in memory. A torn or corrupt record
// kills the run: the durable prefix was already consumed, the remainder is
// counted lost, and the typed error sticks.
func (s *spillScheduler) loadHead(r *spillRun) {
	if r.headOK || r.remaining == 0 || r.failed {
		return
	}
	if r.rd == nil {
		rd, err := segment.OpenWALReaderAt(r.path, r.headOff)
		if err != nil {
			s.runFailed(r, err)
			return
		}
		r.rd = rd
	}
	payload, err := r.rd.Next()
	if err != nil {
		s.runFailed(r, err)
		return
	}
	it, eff, seq, err := decodeSpillEntry(payload, r.path)
	if err != nil {
		s.runFailed(r, err)
		return
	}
	r.head, r.headEff, r.headSeq, r.headOK = it, eff, seq, true
}

func (s *spillScheduler) runFailed(r *spillRun, err error) {
	s.fail("read-run", r.path, err)
	lost := r.remaining
	r.remaining = 0
	r.headOK = false
	r.failed = true
	if r.rd != nil {
		r.rd.Close()
		r.rd = nil
	}
	if lost > 0 {
		s.spilled -= lost
		mSpillLost.Add(int64(lost))
		mSpilledNow.Add(-int64(lost))
		if s.onLost != nil {
			s.onLost(lost)
		}
	}
	// The file is kept for post-mortem inspection; the run is simply
	// retired from the merge.
}

// refill drains disk back into the hot queue: a k-way merge over the cold
// buffer and every run head, best-first, until the hot target is reached.
func (s *spillScheduler) refill() {
	for s.inner.Len() < s.hot {
		const noneIdx = -2
		const coldIdx = -1
		best := noneIdx
		var bestKey key
		if ck, _, ok := s.cold.Min(); ok {
			best, bestKey = coldIdx, ck
		}
		for i, r := range s.runs {
			s.loadHead(r)
			if !r.headOK {
				continue
			}
			hk := key{seed: r.head.IsSeed, prio: r.headEff, seq: r.headSeq}
			if best == noneIdx || keyLess(hk, bestKey) {
				best, bestKey = i, hk
			}
		}
		switch best {
		case noneIdx:
			s.compactRuns()
			return
		case coldIdx:
			_, it, _ := s.cold.DeleteMin()
			s.inner.Reinsert(it, bestKey.prio, bestKey.seq)
		default:
			r := s.runs[best]
			s.inner.Reinsert(r.head, r.headEff, r.headSeq)
			r.remaining--
			r.headOK = false
			r.headOff = r.rd.Offset()
			s.spilled--
			mRefilled.Inc()
			mSpilledNow.Add(-1)
		}
	}
	s.compactRuns()
}

// compactRuns closes and deletes exhausted run files.
func (s *spillScheduler) compactRuns() {
	live := s.runs[:0]
	for _, r := range s.runs {
		if r.remaining == 0 && !r.headOK {
			if r.rd != nil {
				r.rd.Close()
				r.rd = nil
			}
			if !r.failed {
				os.Remove(r.path)
			}
			continue
		}
		live = append(live, r)
	}
	s.runs = live
}

func (s *spillScheduler) Pop() (Item, bool) {
	if s.inner.Len() == 0 {
		s.refill()
	}
	return s.inner.Pop()
}

func (s *spillScheduler) PopTopic(topic string) (Item, bool) {
	if s.inner.Len() == 0 {
		s.refill()
	}
	// With a non-empty hot queue only the in-memory view is consulted: a
	// topic whose entire tail is spilled reports empty until the head
	// drains. Relaxed by design — PopTopic is a phase-bootstrap helper, not
	// the hot path.
	return s.inner.PopTopic(topic)
}

func (s *spillScheduler) PopWorst() (Item, float64, uint64, bool) {
	if s.inner.Len() == 0 {
		s.refill()
	}
	return s.inner.PopWorst()
}

func (s *spillScheduler) Len() int {
	return s.inner.Len() + s.cold.Len() + s.spilled
}

// MemLen reports the in-memory share of the queue (hot + cold buffer) —
// the quantity the budget bounds.
func (s *spillScheduler) MemLen() int { return s.inner.Len() + s.cold.Len() }

// SpilledLen reports the records currently on disk.
func (s *spillScheduler) SpilledLen() int { return s.spilled }

// Err returns the first spill failure, if any.
func (s *spillScheduler) Err() error { return s.err }

func (s *spillScheduler) TopicLen(topic string) (int, int) {
	// In-memory view only; spilled tails are not broken out per topic.
	return s.inner.TopicLen(topic)
}

// Dump streams the hot queue, then the cold buffer, then each run —
// re-reading runs from their first unread record through a fresh handle so
// the live merge position is untouched.
func (s *spillScheduler) Dump(fn func(Item) bool) {
	cont := true
	s.inner.Dump(func(it Item) bool {
		cont = fn(it)
		return cont
	})
	if !cont {
		return
	}
	s.cold.Ascend(func(_ key, it Item) bool {
		cont = fn(it)
		return cont
	})
	if !cont {
		return
	}
	for _, r := range s.runs {
		if r.remaining == 0 && !r.headOK {
			continue
		}
		rd, err := segment.OpenWALReaderAt(r.path, r.headOff)
		if err != nil {
			s.fail("read-run", r.path, err)
			continue
		}
		n := r.remaining
		for i := 0; i < n && cont; i++ {
			payload, err := rd.Next()
			if err != nil {
				s.fail("read-run", r.path, err)
				break
			}
			it, _, _, derr := decodeSpillEntry(payload, r.path)
			if derr != nil {
				s.fail("read-run", r.path, derr)
				break
			}
			cont = fn(it)
		}
		rd.Close()
		if !cont {
			return
		}
	}
}

// Reset drops both tiers: run files are removed, the cold buffer cleared,
// and the wrapped scheduler reset. The sticky error survives so an earlier
// spill failure stays visible across a phase switch.
func (s *spillScheduler) Reset() {
	for _, r := range s.runs {
		if r.rd != nil {
			r.rd.Close()
			r.rd = nil
		}
		os.Remove(r.path)
	}
	mSpilledNow.Add(-int64(s.spilled))
	s.runs = nil
	s.spilled = 0
	s.cold = rbtree.New[key, Item](keyLess)
	s.inner.Reset()
}
