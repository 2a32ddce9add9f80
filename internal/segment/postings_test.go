package segment

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// The postings are a map the first read of a reader inverts from its term
// vectors. These tests pin what that must keep: a lookup after the first
// allocates nothing, terms match exactly as Go strings compare (byte order,
// multi-byte UTF-8 included), and concurrent first reads agree.

// TestVisitPostingsZeroAlloc: after the first call, a lookup allocates
// nothing, found or not, wherever the term falls among the stored terms.
func TestVisitPostingsZeroAlloc(t *testing.T) {
	_, r := buildTemp(t, genInput(42, 300)) // terms: term000 … term199
	var n int
	visit := func(seq int64, tf int) { n += tf }
	for _, tc := range []struct {
		name, term string
		present    bool
	}{
		{"present", "term057", true},
		{"absent between stored terms", "term0575", false},
		{"before the first stored term", "aaa", false},
		{"after the last stored term", "zzz", false},
	} {
		n = 0
		if err := r.VisitPostings(tc.term, visit); err != nil { // the first call inverts the term vectors
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (n > 0) != tc.present {
			t.Fatalf("%s: visited tf sum %d, present=%v", tc.name, n, tc.present)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = r.VisitPostings(tc.term, visit) }); allocs != 0 {
			t.Errorf("%s: VisitPostings(%q) allocates %.1f objects, want 0", tc.name, tc.term, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = r.DocFreq(tc.term) }); allocs != 0 {
			t.Errorf("%s: DocFreq(%q) allocates %.1f objects, want 0", tc.name, tc.term, allocs)
		}
	}
}

// TestVisitPostingsTermOrdering: over a dictionary mixing ASCII and
// multi-byte UTF-8 terms, every stored term is found with its document
// frequency and every absent probe — including ones that sort between two
// multi-byte neighbours — visits nothing.
func TestVisitPostingsTermOrdering(t *testing.T) {
	stored := []string{"caf", "café", "cafés", "naïve", "zoo", "éclair", "日本", "日本語", "𝛼"}
	for i := 0; i < 100; i++ {
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

// TestConcurrentPostingsInversion: goroutines that all make the first
// postings read of one reader at once get the answers of a reader that
// inverted alone.
func TestConcurrentPostingsInversion(t *testing.T) {
	in := genInput(44, 3*blockDocs+17)
	path, ref := buildTemp(t, in)
	want, err := readContent(ref)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const readers = 8
	got := make([]map[string][][2]int64, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = map[string][][2]int64{}
			for term, ps := range want.Postings {
				if df, err := r.DocFreq(term); err != nil || df != len(ps) {
					errs[g] = fmt.Errorf("DocFreq(%q) = %d, %v; want %d", term, df, err, len(ps))
					return
				}
				if err := r.VisitPostings(term, func(seq int64, tf int) {
					got[g][term] = append(got[g][term], [2]int64{seq, int64(tf)})
				}); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("reader %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(got[g], want.Postings) {
			t.Fatalf("reader %d read different postings from a reader that inverted alone", g)
		}
	}
}
