package segment

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The dictionary scan compares each entry against the query term in place
// on the mapped bytes. These tests pin what that must not change: it
// allocates nothing, it orders terms exactly as Go strings order (byte
// order, multi-byte UTF-8 included), and a malformed entry is a typed
// error.

// TestVisitPostingsZeroAlloc: a lookup allocates nothing, found or not,
// wherever the term falls relative to the stored dictionary.
func TestVisitPostingsZeroAlloc(t *testing.T) {
	_, r := buildTemp(t, genInput(42, 300)) // dictionary: term000 … term199
	var n int
	visit := func(seq int64, tf int) { n += tf }
	for _, tc := range []struct {
		name, term string
		present    bool
	}{
		{"present", "term057", true},
		{"present at a sparse entry", "term032", true},
		{"absent between stored terms", "term0575", false},
		{"before the first stored term", "aaa", false},
		{"after the last stored term", "zzz", false},
	} {
		n = 0
		if err := r.VisitPostings(tc.term, visit); err != nil { // also warms the sparse index
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (n > 0) != tc.present {
			t.Fatalf("%s: visited tf sum %d, present=%v", tc.name, n, tc.present)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = r.VisitPostings(tc.term, visit) }); allocs != 0 {
			t.Errorf("%s: VisitPostings(%q) allocates %.1f objects, want 0", tc.name, tc.term, allocs)
		}
	}
}

// TestVisitPostingsTermOrdering: over a dictionary mixing ASCII and
// multi-byte UTF-8 terms, every stored term is found with its document
// frequency and every absent probe — including ones that sort between two
// multi-byte neighbours — visits nothing.
func TestVisitPostingsTermOrdering(t *testing.T) {
	stored := []string{"caf", "café", "cafés", "naïve", "zoo", "éclair", "日本", "日本語", "𝛼"}
	for i := 0; i < 100; i++ { // enough entries for several sparse-index strides
		stored = append(stored, fmt.Sprintf("term%03d", i))
	}
	sort.Strings(stored)
	want := map[string]int{}
	in := BuildInput{}
	for d := 0; d < 40; d++ {
		var terms []TermCount
		for i, term := range stored {
			if (i+d)%3 == 0 {
				terms = append(terms, TermCount{Term: term, TF: 1 + d%4})
				want[term]++
			}
		}
		in.Docs = append(in.Docs, DocRecord{Seq: int64(d + 1), Meta: Meta{URL: fmt.Sprintf("u%d", d)}, Terms: terms})
	}
	_, r := buildTemp(t, in)

	probes := append([]string{"", "cae", "cafe", "caff", "cafét", "naive", "term0505", "é", "日", "日本誤", "𝛽", "\xff"}, stored...)
	for _, term := range probes {
		df, err := r.DocFreq(term)
		if err != nil {
			t.Fatalf("DocFreq(%q): %v", term, err)
		}
		visited := 0
		if err := r.VisitPostings(term, func(int64, int) { visited++ }); err != nil {
			t.Fatalf("VisitPostings(%q): %v", term, err)
		}
		if df != want[term] || visited != want[term] {
			t.Errorf("term %q: df %d, visited %d, want %d", term, df, visited, want[term])
		}
	}
}

// TestVisitPostingsTruncatedEntry: a dictionary entry whose length prefix
// runs past the section fails typed, without a panic.
func TestVisitPostingsTruncatedEntry(t *testing.T) {
	path, r := buildTemp(t, BuildInput{Docs: []DocRecord{{
		Seq: 1, Meta: Meta{URL: "u"}, Terms: []TermCount{{Term: "alpha", TF: 1}, {Term: "beta", TF: 2}},
	}}})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := r.ft.sections[secPostings].off
	if raw[off] != byte(len("alpha")) {
		t.Fatalf("postings section does not start with alpha's length prefix: %#x", raw[off])
	}
	raw[off] = 0x7f // claims a 127-byte term in a section a fraction of that
	mut := filepath.Join(t.TempDir(), "seg-000002.bsg")
	if err := os.WriteFile(mut, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	bad, err := Open(mut)
	if err != nil {
		t.Fatalf("Open: %v", err) // the dictionary is only checked when scanned
	}
	defer bad.Close()
	for _, term := range []string{"alpha", "beta"} {
		if err := bad.VisitPostings(term, func(int64, int) {}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("VisitPostings(%q) over a truncated entry: %v, want ErrCorrupt", term, err)
		}
	}
}
