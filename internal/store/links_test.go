package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/bingo-search/bingo/internal/segment"
	"github.com/bingo-search/bingo/internal/textproc"
)

// TestPredecessorsNeedOnlySourceShard: a link is durable exactly when its
// source shard's files are. Links from one shard to the other three come
// back — frozen or still in the WAL — after every target-only shard's
// directory is deleted.
func TestPredecessorsNeedOnlySourceShard(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, 4, testTierOpts())
	var sources, targets []string
	for i := 0; len(sources) < 4 || len(targets) < 12; i++ {
		u := fmt.Sprintf("http://h%d.example/p%d", i%5, i)
		if s.ShardForURL(u) == 0 {
			sources = append(sources, u)
		} else {
			targets = append(targets, u)
		}
	}
	w := s.NewWorkspace(4)
	want := map[string]string{}
	for i, to := range targets[:12] {
		from := sources[i%4]
		want[to] = from
		l := Link{From: from, To: to, Anchor: fmt.Sprintf("a%d", i)}
		switch {
		case i < 6:
			w.AddLink(l)
		case i == 6:
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			freezeAll(t, s)
			fallthrough
		default:
			s.AddLink(l)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("shard-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	re := openTiered(t, dir, 4, testTierOpts())
	defer re.Close()
	for to, from := range want {
		if got := re.Predecessors(to); !equalStrings(got, []string{from}) {
			t.Fatalf("Predecessors(%s) = %v after its shard was deleted, want [%s]", to, got, from)
		}
	}
}

// TestReopenPredecessorOrderIsStable: the rebuilt in-link index has one
// order, so two reopens of a directory return the same Predecessors and
// InAnchors slices, order included.
func TestReopenPredecessorOrderIsStable(t *testing.T) {
	dir := t.TempDir()
	s := openTiered(t, dir, 4, testTierOpts())
	hubs := []string{"http://hub.example/a", "http://hub.example/b", "http://unstored.example/c"}
	for wave := 0; wave < 3; wave++ {
		fillTier(t, s, 20+wave, 40)
		w := s.NewWorkspace(8)
		for i := 0; i < 40; i++ {
			w.AddLink(Link{From: tierURL(20+wave, i), To: hubs[i%len(hubs)], Anchor: fmt.Sprintf("w%d-%d", wave, i)})
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if wave < 2 {
			freezeAll(t, s) // the last wave stays in the WAL
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	read := func() map[string][2][]string {
		re := openTiered(t, dir, 4, testTierOpts())
		defer re.Close()
		out := map[string][2][]string{}
		for _, l := range re.Links() {
			out[l.To] = [2][]string{re.Predecessors(l.To), re.InAnchors(l.To)}
		}
		return out
	}
	first, second := read(), read()
	if len(first[hubs[0]][0]) < 30 {
		t.Fatalf("hub has %d predecessors, want ≥ 30", len(first[hubs[0]][0]))
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("two reopens of one directory returned different in-link orders")
	}
}

// replayStore returns a two-shard tiered store with no files behind it,
// which is all applyWALRecord touches.
func replayStore() *Store {
	s := NewSharded(2)
	s.opt = &TierOptions{}
	for _, sh := range s.shards {
		sh.tier = &shardTier{shard: sh.idx, opt: s.opt}
		sh.tier.state.store(&tierState{tombs: emptyTombs})
		sh.cold = map[DocID]coldRef{}
	}
	return s
}

// fuzzPrime is the batch every replay fuzz input is applied after: two
// documents at seqs 1 and 2.
var fuzzPrime = wsShard{docs: []Document{
	{URL: "http://a.example/", Topic: "db", Title: "alpha", Text: "body a beta"},
	{URL: "http://b.example/", Topic: "db", Title: "alpha", Text: "body b beta beta"},
}}

// fuzzMixed is one batch of all three relations.
var fuzzMixed = wsShard{
	docs: []Document{{URL: "http://c.example/", Title: "Gamma rays", Text: "body c gamma gamma"}},
	outLinks: []Link{
		{From: "http://a.example/", To: "http://c.example/", Anchor: "see c"},
		{From: "http://a.example/", To: "http://d.example/"},
		{From: "http://b.example/", To: "http://a.example/"},
	},
	redirects: []Redirect{{From: "http://old.example/", To: "http://a.example/"}},
}

// batchBody encodes b as a batch record body.
func batchBody(b *wsShard) []byte {
	var e segment.Enc
	encodeBatchBody(&e, b)
	return append([]byte(nil), e.Bytes()...)
}

// sealedBatch seals b as a batch record whose documents start at firstSeq,
// and returns the record and its compressed body.
func sealedBatch(b *wsShard, firstSeq int64) (rec, comp []byte) {
	var r batchRecord
	r.seal(b)
	return append([]byte(nil), r.frame(firstSeq)...), r.comp
}

// batchHeader frames comp under an arbitrary batch header of this
// binary's pipeline version.
func batchHeader(firstSeq, rawLen uint64, comp []byte) []byte {
	return versionedBatch(textproc.PipelineVersion, firstSeq, rawLen, comp)
}

// versionedBatch frames comp under a batch header naming pipeline version.
func versionedBatch(version, firstSeq, rawLen uint64, comp []byte) []byte {
	var e segment.Enc
	e.Byte(walOpBatch)
	e.Uvarint(version)
	e.Uvarint(firstSeq)
	e.Uvarint(rawLen)
	e.Raw(comp)
	return append([]byte(nil), e.Bytes()...)
}

// checkReplayed fails unless every out-link row of s is indexed on its
// target's shard and every document's term vector is the one its title
// and text derive.
func checkReplayed(t *testing.T, s *Store) {
	t.Helper()
	s.VisitDocs(func(d Document) bool {
		if want := textproc.DocTerms(d.Title, d.Text); !reflect.DeepEqual(d.Terms, want) {
			t.Fatalf("replayed %s has terms %v, want %v", d.URL, d.Terms, want)
		}
		return true
	})
	for _, l := range s.Links() {
		n := 0
		for _, p := range s.Predecessors(l.To) {
			if p == l.From {
				n++
			}
		}
		if n == 0 {
			t.Fatalf("out-link %+v missing from its target's in-link index", l)
		}
	}
}

// FuzzApplyWALRecord replays an arbitrary CRC-valid record payload into a
// tiered store holding two documents: it applies, or fails with a typed
// corruption error (or, for a kind only older releases write, errOlderWAL,
// or for another pipeline version's batch, errOtherPipeline) — never a
// panic or an allocation the record's size does not bound. Once applied,
// every out-link row is indexed on its target's shard and every document
// carries the term vector its title and text derive. Mutations
// of a batch record rarely get past its DEFLATE stream;
// FuzzApplyWALBatch fuzzes the body behind it.
func FuzzApplyWALRecord(f *testing.F) {
	prime, _ := sealedBatch(&fuzzPrime, 1)
	f.Add(prime)
	mixed, comp := sealedBatch(&fuzzMixed, 3)
	f.Add(mixed)
	links, _ := sealedBatch(&wsShard{outLinks: fuzzMixed.outLinks}, 0)
	f.Add(links)
	var e segment.Enc
	e.Byte(walOpDelete)
	e.Str("http://a.example/")
	f.Add(append([]byte(nil), e.Bytes()...))
	// An older release's topic change (kind 5) and training flag (kind 6),
	// and a truncated kind 6.
	e.Reset()
	e.Byte(5)
	e.Str("http://b.example/")
	e.Str("ir")
	e.F64(0.75)
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	e.Byte(walOpOlderTraining)
	e.Str("http://b.example/")
	e.Bool(true)
	f.Add(append([]byte(nil), e.Bytes()...))
	f.Add(append([]byte(nil), e.Bytes()[:4]...))
	rawLen := uint64(len(batchBody(&fuzzMixed)))
	// A truncated DEFLATE stream, a raw length one byte off, and a raw
	// length no DEFLATE stream of that size can inflate to (1032 is
	// segment's maxInflate).
	f.Add(mixed[:len(mixed)-3])
	f.Add(batchHeader(3, rawLen+1, comp))
	f.Add(batchHeader(3, 1032*uint64(len(comp))+1, comp))
	// A docs record and a term-carrying batch of older releases, and a
	// batch written under another pipeline version.
	f.Add([]byte{1, 0})
	f.Add(append([]byte{7}, mixed[2:]...))
	f.Add(versionedBatch(textproc.PipelineVersion+1, 3, rawLen, comp))
	f.Add([]byte{})
	f.Add([]byte{99})

	f.Fuzz(func(t *testing.T, payload []byte) {
		s := replayStore()
		var buf []byte
		if err := s.applyWALRecord(s.shards[0], prime, &buf, nil); err != nil {
			t.Fatalf("priming record: %v", err)
		}
		if err := s.applyWALRecord(s.shards[0], payload, &buf, nil); err != nil {
			if !errors.Is(err, segment.ErrCorrupt) && !errors.Is(err, errOlderWAL) && !errors.Is(err, errOtherPipeline) {
				t.Fatalf("replay error not typed: %v", err)
			}
			return
		}
		checkReplayed(t, s)
	})
}

// FuzzApplyWALBatch replays an arbitrary inflated batch body after the
// two-document prime: it applies or fails with a typed corruption error,
// never a panic or an allocation the body's size does not bound. Applied,
// every document carries the term vector its title and text derive.
func FuzzApplyWALBatch(f *testing.F) {
	f.Add(batchBody(&fuzzMixed))
	f.Add(batchBody(&fuzzPrime))
	f.Add(batchBody(&wsShard{outLinks: fuzzMixed.outLinks, redirects: fuzzMixed.redirects}))
	f.Add(batchBody(&wsShard{docs: []Document{{
		URL: "http://d.example/", Title: "Über déjà vu", Text: "hopping 42 x relational conditional",
		Topic: "ROOT/db", Confidence: 0.5, Depth: 2, IsTraining: true,
	}}}))
	// A document claiming a 2^33-byte text: corrupt, never an allocation.
	var e segment.Enc
	e.Uvarint(1)
	m := metaFromDoc(&Document{URL: "http://huge.example/"})
	e.MetaFields(&m)
	e.Uvarint(1 << 33)
	f.Add(append([]byte(nil), e.Bytes()...))
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{})

	prime, _ := sealedBatch(&fuzzPrime, 1)
	f.Fuzz(func(t *testing.T, body []byte) {
		s := replayStore()
		var buf []byte
		if err := s.applyWALRecord(s.shards[0], prime, &buf, nil); err != nil {
			t.Fatalf("priming record: %v", err)
		}
		if err := s.applyBatch(s.shards[0], 3, body, nil); err != nil {
			if !errors.Is(err, segment.ErrCorrupt) {
				t.Fatalf("replay error not typed: %v", err)
			}
			return
		}
		checkReplayed(t, s)
	})
}
