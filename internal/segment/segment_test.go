package segment

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// genInput builds a deterministic segment input with enough volume to span
// multiple blocks in every section.
func genInput(seed int64, nDocs int) BuildInput {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 200)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%03d", i)
	}
	in := BuildInput{Shard: 3}
	seq := int64(rng.Intn(5))
	for d := 0; d < nDocs; d++ {
		seq += int64(1 + rng.Intn(3))
		counts := map[string]int{}
		nTerms := 5 + rng.Intn(40)
		for t := 0; t < nTerms; t++ {
			counts[vocab[rng.Intn(len(vocab))]]++
		}
		terms := make([]TermCount, 0, len(counts))
		for t, c := range counts {
			terms = append(terms, TermCount{Term: t, TF: c})
		}
		sort.Slice(terms, func(i, j int) bool { return terms[i].Term < terms[j].Term })
		text := ""
		for i := 0; i < 3+rng.Intn(20); i++ {
			text += vocab[rng.Intn(len(vocab))] + " "
		}
		in.Docs = append(in.Docs, DocRecord{
			Seq: seq,
			Meta: Meta{
				URL:            fmt.Sprintf("https://example.org/d/%d", d),
				FinalURL:       fmt.Sprintf("https://example.org/d/%d", d),
				Title:          fmt.Sprintf("doc %d", d),
				ContentType:    "text/html",
				Topic:          fmt.Sprintf("/t%d", d%4),
				Confidence:     rng.Float64(),
				Depth:          rng.Intn(6),
				CrawledAtNanos: 1700000000_000000000 + int64(d),
				IsTraining:     d%7 == 0,
			},
			Terms: terms,
			Text:  text,
		})
	}
	for i := 0; i < nDocs*2; i++ {
		in.OutLinks = append(in.OutLinks, LinkRow{
			From:   fmt.Sprintf("https://example.org/d/%d", rng.Intn(nDocs)),
			To:     fmt.Sprintf("https://example.org/d/%d", rng.Intn(nDocs)),
			Anchor: vocab[rng.Intn(len(vocab))],
		})
	}
	for i := 0; i < nDocs; i++ {
		in.InLinks = append(in.InLinks, LinkRow{
			From:   fmt.Sprintf("https://other.net/%d", i),
			To:     fmt.Sprintf("https://example.org/d/%d", rng.Intn(nDocs)),
			Anchor: "in",
		})
	}
	for i := 0; i < nDocs/3; i++ {
		in.Redirects = append(in.Redirects, RedirectRow{
			From: fmt.Sprintf("https://short.ly/%d", i),
			To:   fmt.Sprintf("https://example.org/d/%d", rng.Intn(nDocs)),
		})
	}
	return in
}

func buildTemp(t *testing.T, in BuildInput) (string, *Reader) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg-000001.bsg")
	n, err := Build(path, in)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() != n {
		t.Fatalf("Build reported %d bytes, file has %v %v", n, st, err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return path, r
}

func TestSegmentRoundTrip(t *testing.T) {
	in := genInput(42, 300) // ~5 doc blocks
	_, r := buildTemp(t, in)

	if r.DocCount() != len(in.Docs) {
		t.Fatalf("DocCount=%d want %d", r.DocCount(), len(in.Docs))
	}
	if r.Shard() != in.Shard {
		t.Fatalf("Shard=%d want %d", r.Shard(), in.Shard)
	}
	if r.MinSeq() != in.Docs[0].Seq || r.MaxSeq() != in.Docs[len(in.Docs)-1].Seq {
		t.Fatalf("seq bounds [%d,%d] want [%d,%d]", r.MinSeq(), r.MaxSeq(), in.Docs[0].Seq, in.Docs[len(in.Docs)-1].Seq)
	}

	// Streaming meta matches input, in order.
	pos := 0
	err := r.VisitMeta(func(p int, seq int64, m Meta) bool {
		if p != pos {
			t.Fatalf("VisitMeta pos %d want %d", p, pos)
		}
		if seq != in.Docs[p].Seq || m != in.Docs[p].Meta {
			t.Fatalf("doc %d meta mismatch:\n got (%d) %+v\nwant (%d) %+v", p, seq, m, in.Docs[p].Seq, in.Docs[p].Meta)
		}
		pos++
		return true
	})
	if err != nil {
		t.Fatalf("VisitMeta: %v", err)
	}
	if pos != len(in.Docs) {
		t.Fatalf("VisitMeta visited %d of %d", pos, len(in.Docs))
	}

	// Random access, then every position in order: term vectors, text.
	for _, p := range []int{0, 1, 63, 64, 65, 128, len(in.Docs) - 1} {
		vec, err := r.TermVec(p)
		if err != nil || !reflect.DeepEqual(vec, in.Docs[p].Terms) {
			t.Fatalf("TermVec(%d) mismatch: %v", p, err)
		}
		text, err := r.Text(p)
		if err != nil || text != in.Docs[p].Text {
			t.Fatalf("Text(%d) mismatch: %v", p, err)
		}
	}
	for p := range in.Docs {
		vec, err := r.TermVec(p)
		if err != nil || !reflect.DeepEqual(vec, in.Docs[p].Terms) {
			t.Fatalf("TermVec(%d) mismatch: %v", p, err)
		}
	}
	for _, p := range []int{-1, len(in.Docs)} {
		if _, err := r.TermVec(p); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("TermVec(%d) out of range: %v", p, err)
		}
	}

	// Postings equal the reference inverted index for every term, plus
	// lookups that miss (before the first term, between terms, after the
	// last).
	ref := map[string][]buildPosting{}
	for i := range in.Docs {
		for _, tc := range in.Docs[i].Terms {
			ref[tc.Term] = append(ref[tc.Term], buildPosting{seq: in.Docs[i].Seq, tf: tc.TF})
		}
	}
	for term, want := range ref {
		var got []buildPosting
		if err := r.VisitPostings(term, func(seq int64, tf int) {
			got = append(got, buildPosting{seq: seq, tf: tf})
		}); err != nil {
			t.Fatalf("VisitPostings(%q): %v", term, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("postings for %q: got %v want %v", term, got, want)
		}
		df, err := r.DocFreq(term)
		if err != nil || df != len(want) {
			t.Fatalf("DocFreq(%q)=%d,%v want %d", term, df, err, len(want))
		}
	}
	for _, miss := range []string{"aaaa", "term0000x", "term999", "zzzz"} {
		if _, ok := ref[miss]; ok {
			continue
		}
		called := false
		if err := r.VisitPostings(miss, func(int64, int) { called = true }); err != nil {
			t.Fatalf("VisitPostings(miss %q): %v", miss, err)
		}
		if called {
			t.Fatalf("VisitPostings(%q) visited postings for absent term", miss)
		}
		if df, err := r.DocFreq(miss); err != nil || df != 0 {
			t.Fatalf("DocFreq(%q)=%d,%v want 0", miss, df, err)
		}
	}

	// Links and redirects round-trip, split by family, in order.
	var outs, ins []LinkRow
	if err := r.VisitLinks(func(l LinkRow, out bool) bool {
		if out {
			outs = append(outs, l)
		} else {
			ins = append(ins, l)
		}
		return true
	}); err != nil {
		t.Fatalf("VisitLinks: %v", err)
	}
	if !reflect.DeepEqual(outs, in.OutLinks) || !reflect.DeepEqual(ins, in.InLinks) {
		t.Fatalf("links mismatch: %d/%d out, %d/%d in", len(outs), len(in.OutLinks), len(ins), len(in.InLinks))
	}
	var reds []RedirectRow
	if err := r.VisitRedirects(func(rd RedirectRow) bool { reds = append(reds, rd); return true }); err != nil {
		t.Fatalf("VisitRedirects: %v", err)
	}
	if !reflect.DeepEqual(reds, in.Redirects) {
		t.Fatalf("redirects mismatch")
	}
}

func TestSegmentEmpty(t *testing.T) {
	_, r := buildTemp(t, BuildInput{Shard: 0})
	if r.DocCount() != 0 {
		t.Fatalf("DocCount=%d", r.DocCount())
	}
	if err := r.VisitMeta(func(int, int64, Meta) bool { t.Fatal("visited"); return false }); err != nil {
		t.Fatalf("VisitMeta: %v", err)
	}
	if err := r.VisitPostings("anything", func(int64, int) { t.Fatal("visited") }); err != nil {
		t.Fatalf("VisitPostings: %v", err)
	}
	if err := r.VisitLinks(func(LinkRow, bool) bool { t.Fatal("visited"); return false }); err != nil {
		t.Fatalf("VisitLinks: %v", err)
	}
}

func TestBuildRejectsUnsortedSeqs(t *testing.T) {
	in := BuildInput{Docs: []DocRecord{{Seq: 5}, {Seq: 4}}}
	if _, err := Build(filepath.Join(t.TempDir(), "x.bsg"), in); err == nil {
		t.Fatal("Build accepted out-of-order seqs")
	}
}

// readAll exercises every decode path of a reader; used to prove corrupted
// files fail typed, not panic.
func readAll(r *Reader) error {
	if err := r.VisitMeta(func(int, int64, Meta) bool { return true }); err != nil {
		return err
	}
	for p := 0; p < r.DocCount(); p++ {
		if _, err := r.TermVec(p); err != nil {
			return err
		}
		if _, err := r.Text(p); err != nil {
			return err
		}
	}
	for i := 0; i < 200; i++ {
		if err := r.VisitPostings(fmt.Sprintf("term%03d", i), func(int64, int) {}); err != nil {
			return err
		}
	}
	if err := r.VisitLinks(func(LinkRow, bool) bool { return true }); err != nil {
		return err
	}
	return r.VisitRedirects(func(RedirectRow) bool { return true })
}

// TestSegmentCorruptionInjection flips one byte at a spread of offsets and
// asserts the reader either still agrees with the original data or fails
// with a typed corruption error — never a panic, never silent bad data.
func TestSegmentCorruptionInjection(t *testing.T) {
	in := genInput(7, 150)
	path, _ := buildTemp(t, in)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	step := len(orig) / 97
	if step == 0 {
		step = 1
	}
	for off := 0; off < len(orig); off += step {
		mut := make([]byte, len(orig))
		copy(mut, orig)
		mut[off] ^= 0x40
		p := filepath.Join(dir, "mut.bsg")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("flip at offset %d: panic %v", off, rec)
				}
			}()
			r, err := Open(p)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("flip at offset %d: Open error not typed: %v", off, err)
				}
				return
			}
			defer r.Close()
			if err := readAll(r); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at offset %d: read error not typed: %v", off, err)
			}
		}()
	}
}

// TestSegmentTruncation cuts the file at a spread of lengths; every prefix
// must fail Open with a typed error (the footer is at the end, so any
// truncation destroys it).
func TestSegmentTruncation(t *testing.T) {
	in := genInput(11, 80)
	path, _ := buildTemp(t, in)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, cut := range []int{0, 3, 10, len(orig) / 2, len(orig) - 9, len(orig) - 1} {
		if cut >= len(orig) {
			continue
		}
		p := filepath.Join(dir, "trunc.bsg")
		if err := os.WriteFile(p, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(p)
		if err == nil {
			r.Close()
			t.Fatalf("Open accepted %d-byte truncation of %d-byte segment", cut, len(orig))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error not typed: %v", cut, err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncation at %d: not a *CorruptError: %v", cut, err)
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.wal")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("record-%d-%s", i, string(make([]byte, i*7))))
		want = append(want, p)
		if err := w.Append(p, i%10 == 0); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	n, good, err := ReplayWAL(path, func(p []byte) error {
		c := make([]byte, len(p))
		copy(c, p)
		got = append(got, c)
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if n != len(want) {
		t.Fatalf("replayed %d records, want %d", n, len(want))
	}
	st, _ := os.Stat(path)
	if good != st.Size() {
		t.Fatalf("goodSize=%d file=%d", good, st.Size())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("payload mismatch")
	}

	// Re-open for append, add more, replay again.
	w2, err := OpenWALForAppend(path, good)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append([]byte("after-reopen"), true); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	n, _, err = ReplayWAL(path, func(p []byte) error { return nil })
	if err != nil || n != len(want)+1 {
		t.Fatalf("after reopen: %d records, %v", n, err)
	}
}

// TestWALTornTail proves the two replay failure shapes: a truncated tail
// recovers the prefix silently; a bit flip inside a complete record is a
// typed corruption error.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.wal")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append([]byte(fmt.Sprintf("payload-number-%02d", i)), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Every truncation point: replay never errors, recovers a prefix, and
	// goodSize is consistent (replaying the goodSize-truncated file yields
	// the same records).
	prevRecords := -1
	for cut := len(orig); cut >= 0; cut-- {
		p := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(p, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		n, good, err := ReplayWAL(p, func([]byte) error { return nil })
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if good > int64(cut) {
			t.Fatalf("cut at %d: goodSize %d beyond file", cut, good)
		}
		if prevRecords != -1 && n > prevRecords {
			t.Fatalf("cut at %d: records grew from %d to %d as file shrank", cut, prevRecords, n)
		}
		prevRecords = n
	}

	// Bit flip in a complete record's payload: typed error, prefix before
	// the bad record still delivered.
	mut := make([]byte, len(orig))
	copy(mut, orig)
	// Header is 5 bytes; first record frame is 8; flip a byte inside the
	// fourth record's payload region (safely past three records).
	recLen := 8 + len("payload-number-00")
	flipAt := walHdrLen + 3*recLen + 8 + 2
	mut[flipAt] ^= 0x01
	p := filepath.Join(dir, "flip.wal")
	if err := os.WriteFile(p, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	n, _, err := ReplayWAL(p, func([]byte) error { return nil })
	if err == nil {
		t.Fatal("replay accepted bit-flipped record")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flip error not typed: %v", err)
	}
	if n != 3 {
		t.Fatalf("delivered %d records before corruption, want 3", n)
	}

	// Bit flip in a length field that inflates it past the file: the frame
	// now extends past EOF, which is indistinguishable from a torn tail —
	// prefix recovery, no error.
	mut2 := make([]byte, len(orig))
	copy(mut2, orig)
	mut2[walHdrLen+3*recLen+1] ^= 0x7f // record 3's length field, big flip
	p2 := filepath.Join(dir, "lenflip.wal")
	if err := os.WriteFile(p2, mut2, 0o644); err != nil {
		t.Fatal(err)
	}
	n2, _, err2 := ReplayWAL(p2, func([]byte) error { return nil })
	if err2 == nil && n2 < 3 {
		t.Fatalf("length flip lost intact prefix: %d records", n2)
	}
	if err2 != nil && !errors.Is(err2, ErrCorrupt) {
		t.Fatalf("length flip error not typed: %v", err2)
	}
}

func TestWALHugeLengthRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.wal")
	var e enc
	e.raw([]byte(walMagic))
	e.byte(walVersion)
	e.u32(1 << 30) // absurd length
	e.u32(0xdeadbeef)
	// Enough trailing bytes that the frame header itself is complete and
	// the file clearly claims a record it cannot hold... but ReadFull on
	// the payload will hit EOF → torn tail unless the length cap fires
	// first. Pad so the cap is what must fire.
	if err := os.WriteFile(path, e.b, 0o644); err != nil {
		t.Fatal(err)
	}
	n, good, err := ReplayWAL(path, func([]byte) error { return nil })
	if err == nil {
		// Frame past EOF is torn-tail by policy; the cap only catches
		// in-range absurdity. Accept prefix recovery of zero records.
		if n != 0 || good != walHdrLen {
			t.Fatalf("unexpected recovery: n=%d good=%d", n, good)
		}
		return
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error not typed: %v", err)
	}
}
