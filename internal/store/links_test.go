package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/bingo-search/bingo/internal/segment"
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
		sh.tier = &shardTier{shard: sh.idx, opt: s.opt, overrides: map[int64]coldOverride{}}
		sh.tier.state.store(&tierState{tombs: emptyTombs})
		sh.cold = map[DocID]coldRef{}
	}
	return s
}

// FuzzApplyWALRecord replays an arbitrary CRC-valid record payload into a
// tiered store holding two documents: it applies, or fails with a typed
// corruption error — never a panic or an allocation the record's size does
// not bound. Once applied, every out-link row is indexed on its target's
// shard.
func FuzzApplyWALRecord(f *testing.F) {
	var docs segment.Enc
	docs.Byte(walOpDocs)
	docs.Uvarint(2)
	for i, u := range []string{"http://a.example/", "http://b.example/"} {
		walEncodeDoc(&docs, int64(i+1), &Document{URL: u, Topic: "db", Text: "body " + u, Terms: map[string]int{"alpha": 1, "beta": i + 1}})
	}
	prime := append([]byte(nil), docs.Bytes()...)
	f.Add(prime)
	var e segment.Enc
	walEncodeLinks(&e, []Link{
		{From: "http://a.example/", To: "http://c.example/", Anchor: "see c"},
		{From: "http://b.example/", To: "http://a.example/"},
	})
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	// An in-link row, as logs held before links were stored once.
	e.Byte(walOpLinks)
	e.Uvarint(1)
	e.Bool(false)
	e.Str("http://a.example/")
	e.Str("http://c.example/")
	e.Str("see c")
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	e.Byte(walOpRedirects)
	e.Uvarint(1)
	e.Str("http://old.example/")
	e.Str("http://a.example/")
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	e.Byte(walOpDelete)
	e.Str("http://a.example/")
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	e.Byte(walOpSetTopic)
	e.Str("http://b.example/")
	e.Str("ir")
	e.F64(0.75)
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	e.Byte(walOpSetTraining)
	e.Str("http://b.example/")
	e.Bool(true)
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	// A document claiming 2^33 terms: once an allocation hint, now corrupt.
	e.Byte(walOpDocs)
	e.Uvarint(1)
	m := metaFromDoc(&Document{URL: "http://huge.example/"})
	e.Meta(9, &m)
	e.Uvarint(1 << 33)
	f.Add(append([]byte(nil), e.Bytes()...))
	f.Add([]byte{})
	f.Add([]byte{99})

	f.Fuzz(func(t *testing.T, payload []byte) {
		s := replayStore()
		if err := s.applyWALRecord(s.shards[0], prime, nil); err != nil {
			t.Fatalf("priming record: %v", err)
		}
		if err := s.applyWALRecord(s.shards[0], payload, nil); err != nil {
			if !errors.Is(err, segment.ErrCorrupt) {
				t.Fatalf("replay error not typed: %v", err)
			}
			return
		}
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
	})
}
