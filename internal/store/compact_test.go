package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// writeDocs flushes documents [lo, hi) of a link-free series through one
// workspace; textBytes sizes each body with incompressible text.
func writeDocs(t *testing.T, s *Store, lo, hi, textBytes int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(lo)))
	w := s.NewWorkspace(64)
	for i := lo; i < hi; i++ {
		body := make([]byte, textBytes)
		for j := range body {
			body[j] = 'a' + byte(rng.Intn(26))
		}
		w.Add(Document{
			URL:        fmt.Sprintf("http://c%d.example/p%d", i%7, i),
			Title:      fmt.Sprintf("doc %d", i),
			Topic:      []string{"db", "ir"}[i%2],
			Confidence: float64(i%10) / 10,
			Text:       fmt.Sprintf("doc %d %s", i, body),
			Terms:      map[string]int{"alpha": 1 + i%3, fmt.Sprintf("t%d", i%17): 2},
			CrawledAt:  time.Unix(1700000000+int64(i), 0),
		})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// goroutinesIn returns how many goroutines have fn on their stack.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if strings.Contains(string(g), fn) {
			n++
		}
	}
	return n
}

// TestRacingFlushesFreezeOnce: flushes that find a shard over budget while
// its freeze is building wait for that freeze, and then must not freeze
// the handful of documents that arrived meanwhile: two such flushes during
// one build give exactly one freeze.
func TestRacingFlushesFreezeOnce(t *testing.T) {
	// writeDocs' documents with 8 text bytes weigh 53–55 hot bytes each, so
	// the first ten (530 bytes) cross this budget and the four racing ones
	// (220 bytes) stay under it.
	opt := testTierOpts()
	opt.MemtableBudget = 500
	s := openTiered(t, t.TempDir(), 1, opt)
	defer s.Close()
	var wg sync.WaitGroup
	freezePrePublishHook = func() {
		freezePrePublishHook = nil
		// The building freeze's 10 documents still count as hot until it
		// publishes, so each of these flushes finds the shard over budget
		// and queues on the freeze lock.
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				writeDocs(t, s, 10+2*k, 12+2*k, 8)
			}(k)
		}
		for deadline := time.Now().Add(10 * time.Second); goroutinesIn("(*Store).freezeShard(") < 3; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("racing flushes never reached the freeze lock")
			}
		}
	}
	defer func() { freezePrePublishHook = nil }()
	writeDocs(t, s, 0, 10, 8)
	wg.Wait()
	sh := s.shards[0]
	sh.docMu.RLock()
	segs, hot := len(sh.tier.state.load().segs), sh.tier.hotDocs
	sh.docMu.RUnlock()
	if segs != 1 || hot != 4 {
		t.Fatalf("%d segments and %d hot documents after one over-budget freeze and two racing flushes; want 1 and 4", segs, hot)
	}
}

// TestCompactionCopiesCleanBlocks: merging segments of full document blocks
// with no deleted row copies every block and re-encodes none; deletes in
// two blocks re-encode exactly those two, and the merged store still reads
// as the in-memory one.
func TestCompactionCopiesCleanBlocks(t *testing.T) {
	opt := testTierOpts()
	opt.CompactFanout = 2
	s := openTiered(t, t.TempDir(), 1, opt)
	defer s.Close()
	ref := NewSharded(1)
	write := func(lo, hi int) {
		writeDocs(t, s, lo, hi, 40)
		writeDocs(t, ref, lo, hi, 40)
		freezeAll(t, s)
	}
	compact := func() (copied, reencoded int64) {
		c, r := mCompactCopied.Value(), mCompactReenc.Value()
		compactAll(t, s)
		if n := len(s.shards[0].tier.state.load().segs); n != 1 {
			t.Fatalf("%d segments after compaction, want 1", n)
		}
		return mCompactCopied.Value() - c, mCompactReenc.Value() - r
	}
	for k := 0; k < 4; k++ {
		write(64*k, 64*(k+1))
	}
	if c, r := compact(); c != 4 || r != 0 {
		t.Fatalf("clean merge of four 64-doc segments copied %d blocks and re-encoded %d; want 4 and 0", c, r)
	}
	requireStoresEqual(t, "clean merge", s, ref)

	for _, st := range []*Store{s, ref} {
		for _, i := range []int{70, 130} {
			if !st.Delete(fmt.Sprintf("http://c%d.example/p%d", i%7, i)) {
				t.Fatalf("delete of document %d failed", i)
			}
		}
	}
	// Four more freezes merge clean into a second four-freeze segment, which
	// then merges with the first: its two blocks with a delete re-encode.
	for k := 4; k < 8; k++ {
		write(64*k, 64*(k+1))
	}
	if c, r := compact(); c != 4+2+4 || r != 2 {
		t.Fatalf("merge with deletes in two blocks copied %d blocks and re-encoded %d; want 10 and 2", c, r)
	}
	requireStoresEqual(t, "merge with deletes in two blocks", s, ref)
	s.shards[0].docMu.RLock()
	tombs := len(s.shards[0].tier.state.load().tombs)
	s.shards[0].docMu.RUnlock()
	if tombs != 0 {
		t.Fatalf("%d tombstones left after the merge dropped their rows", tombs)
	}
}

// requireDisjoint fails unless the segments' seq ranges are disjoint and
// ascending.
func requireDisjoint(t *testing.T, segs []*tierSeg) {
	t.Helper()
	for i := 1; i < len(segs); i++ {
		if segs[i].r.MinSeq() <= segs[i-1].r.MaxSeq() {
			t.Fatalf("segment %d seqs [%d,%d] overlap segment %d's [%d,%d]", i, segs[i].r.MinSeq(), segs[i].r.MaxSeq(), i-1, segs[i-1].r.MinSeq(), segs[i-1].r.MaxSeq())
		}
	}
}

// rewriteManifest applies edit to shard 0's manifest under dir.
func rewriteManifest(t *testing.T, dir string, edit func(man *tierManifest)) {
	t.Helper()
	path := filepath.Join(dir, "shard-00", "MANIFEST.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man tierManifest
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	edit(&man)
	if b, err = json.Marshal(&man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCompactShardMergesAdjacentRuns: with a higher-tier segment between
// single-freeze ones, compaction merges only runs of adjacent same-tier
// segments, so the segments' seq ranges stay disjoint.
func TestCompactShardMergesAdjacentRuns(t *testing.T) {
	dir := t.TempDir()
	opt := testTierOpts()
	opt.CompactFanout = 2
	s := openTiered(t, dir, 1, opt)
	ref := NewSharded(1)
	n := 0
	write := func(docs int) {
		writeDocs(t, s, n, n+docs, 40)
		writeDocs(t, ref, n, n+docs, 40)
		freezeAll(t, s)
		n += docs
	}
	write(5)
	write(5)
	write(80)
	write(5)
	write(5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Record the middle segment as a merge of four freezes, as that merge
	// would have left the manifest, its four freezes and itself each
	// having allocated a segment ID: tier 2 at fanout 2, between two runs
	// of tier-0 segments.
	rewriteManifest(t, dir, func(man *tierManifest) {
		man.Freezes = []int64{1, 1, 4, 1, 1}
		man.NextSegID += 4
	})
	s = openTiered(t, dir, 1, opt)
	defer s.Close()
	compactAll(t, s)
	segs := s.shards[0].tier.state.load().segs
	if len(segs) != 3 {
		t.Fatalf("%d segments after compaction, want 3 (small pair, four-freeze segment, small pair)", len(segs))
	}
	requireDisjoint(t, segs)
	if segs[0].r.DocCount() != 10 || segs[2].r.DocCount() != 10 {
		t.Fatalf("small runs merged into %d and %d documents, want 10 each", segs[0].r.DocCount(), segs[2].r.DocCount())
	}
	requireStoresEqual(t, "adjacent compaction", s, ref)
}

// TestCompactionBoundsRewrites: with compaction run to completion after
// every freeze, a shard that has frozen n times holds segments whose
// freeze counts are n's base-fanout digits, the oldest rows in the
// largest; compaction has read no row more than ⌊log_fanout n⌋ times; and
// the segments' seq ranges are disjoint. Every freeze holds the same
// number of documents, so a segment's freeze count is its document count
// over that.
func TestCompactionBoundsRewrites(t *testing.T) {
	const perFreeze = 4
	for _, fanout := range []int{2, 3, 4} {
		opt := testTierOpts()
		opt.CompactFanout = fanout
		s := openTiered(t, t.TempDir(), 1, opt)
		sh := s.shards[0]
		readBefore := mCompactBytesIn.Value()
		var frozenBytes int64
		for n := 1; n <= 40; n++ {
			writeDocs(t, s, perFreeze*(n-1), perFreeze*n, 40)
			freezeAll(t, s)
			segs := sh.tier.state.load().segs
			frozenBytes += segs[len(segs)-1].bytes
			compactAll(t, s)

			segs = sh.tier.state.load().segs
			var got, want []int
			for _, seg := range segs {
				got = append(got, seg.r.DocCount()/perFreeze)
				if seg.freezes != int64(seg.r.DocCount()/perFreeze) {
					t.Fatalf("fanout %d, %d freezes: a segment of %d documents counts %d freezes", fanout, n, seg.r.DocCount(), seg.freezes)
				}
			}
			levels, unit := 0, 1
			for unit*fanout <= n {
				unit *= fanout
				levels++
			}
			for rest := n; unit > 0; unit /= fanout {
				for ; rest >= unit; rest -= unit {
					want = append(want, unit)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fanout %d, %d freezes: segments hold %v freezes, want %v", fanout, n, got, want)
			}
			// A merge's output is no larger than its inputs, so reading each
			// row at most levels times reads at most levels times the bytes
			// the freezes wrote.
			if read := mCompactBytesIn.Value() - readBefore; read > int64(levels)*frozenBytes {
				t.Fatalf("fanout %d, %d freezes: compaction read %d bytes of %d frozen, more than %d passes", fanout, n, read, frozenBytes, levels)
			}
			requireDisjoint(t, segs)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFreezeCountsSurviveReopen: the manifest keeps each segment's freeze
// count, so four freezes merged into one segment at fanout 4 reopen in
// tier 1, and three more freezes leave a run of three tier-0 segments that
// no merge takes.
func TestFreezeCountsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	opt := testTierOpts()
	s := openTiered(t, dir, 1, opt)
	for k := 0; k < 4; k++ {
		writeDocs(t, s, 8*k, 8*(k+1), 40)
		freezeAll(t, s)
	}
	compactAll(t, s)
	if n := len(s.shards[0].tier.state.load().segs); n != 1 {
		t.Fatalf("%d segments after compacting four freezes at fanout 4, want 1", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTiered(t, dir, 1, opt)
	defer s.Close()
	for k := 4; k < 7; k++ {
		writeDocs(t, s, 8*k, 8*(k+1), 40)
		freezeAll(t, s)
	}
	runs := mCompactRuns.Value()
	compactAll(t, s)
	if merged, n := mCompactRuns.Value()-runs, len(s.shards[0].tier.state.load().segs); merged != 0 || n != 4 {
		t.Fatalf("after a reopen and three more freezes, compaction merged %d times into %d segments; want 0 and 4", merged, n)
	}
}
