package features

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func doc(terms ...string) DocTerms {
	d := DocTerms{}
	for _, t := range terms {
		d[t]++
	}
	return d
}

func TestSelectMIDiscriminativeTerms(t *testing.T) {
	// "theorem" appears in every math doc and never elsewhere; "page" is
	// everywhere; MI must rank theorem far above page (paper's §2.3 example).
	pos := []DocTerms{
		doc("theorem", "algebra", "page"),
		doc("theorem", "proof", "page"),
		doc("theorem", "lemma", "page"),
	}
	neg := []DocTerms{
		doc("crop", "farm", "page"),
		doc("paint", "art", "page"),
		doc("tractor", "farm", "page"),
	}
	sel := SelectMI(pos, neg, Options{TopK: 3, Candidates: 0})
	if len(sel.Ranked) == 0 || sel.Ranked[0].Term != "theorem" {
		t.Fatalf("ranked = %+v", sel.Ranked)
	}
	if !sel.Contains("theorem") {
		t.Error("set missing theorem")
	}
	for _, st := range sel.Ranked {
		if st.Term == "page" && st.MI >= sel.Ranked[0].MI {
			t.Errorf("ubiquitous term ranked too high: %+v", sel.Ranked)
		}
	}
}

func TestSelectMITopicSpecific(t *testing.T) {
	// "field" discriminates algebra vs stochastics but "theorem" (present in
	// both) does not — topic-specific selection must reflect that.
	algebra := []DocTerms{doc("theorem", "field", "group"), doc("theorem", "field", "ring")}
	stochastics := []DocTerms{doc("theorem", "probability"), doc("theorem", "variance")}
	sel := SelectMI(algebra, stochastics, Options{TopK: 2, Candidates: 0})
	if sel.Ranked[0].Term == "theorem" {
		t.Errorf("theorem should not be the top discriminator: %+v", sel.Ranked)
	}
	found := false
	for _, st := range sel.Ranked {
		if st.Term == "field" {
			found = true
		}
	}
	if !found {
		t.Errorf("field not selected: %+v", sel.Ranked)
	}
}

func TestSelectMICandidatePreselection(t *testing.T) {
	// With Candidates=1 only the most frequent positive term is evaluated.
	pos := []DocTerms{{"frequent": 10, "rare": 1}}
	neg := []DocTerms{{"other": 1}}
	sel := SelectMI(pos, neg, Options{TopK: 10, Candidates: 1})
	if len(sel.Ranked) != 1 || sel.Ranked[0].Term != "frequent" {
		t.Errorf("ranked = %+v", sel.Ranked)
	}
}

func TestSelectMIEmpty(t *testing.T) {
	sel := SelectMI(nil, nil, DefaultOptions())
	if len(sel.Ranked) != 0 || sel.Contains("x") {
		t.Errorf("empty selection = %+v", sel)
	}
	sel = SelectMI([]DocTerms{doc("a")}, nil, Options{TopK: 0})
	if len(sel.Ranked) != 0 {
		t.Errorf("TopK=0 selection = %+v", sel)
	}
}

func TestSelectMIDeterministic(t *testing.T) {
	pos := []DocTerms{doc("a", "b", "c"), doc("a", "d")}
	neg := []DocTerms{doc("e", "f")}
	a := SelectMI(pos, neg, Options{TopK: 5, Candidates: 0})
	b := SelectMI(pos, neg, Options{TopK: 5, Candidates: 0})
	if len(a.Ranked) != len(b.Ranked) {
		t.Fatal("nondeterministic length")
	}
	for i := range a.Ranked {
		if a.Ranked[i] != b.Ranked[i] {
			t.Fatalf("nondeterministic order: %v vs %v", a.Ranked, b.Ranked)
		}
	}
}

// Properties: MI of a term occurring only in positive docs is positive;
// selection size never exceeds TopK; every selected term occurs in some
// positive document.
func TestSelectMIProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	randDoc := func() DocTerms {
		d := DocTerms{}
		for i := 0; i < 1+rng.Intn(5); i++ {
			d[vocab[rng.Intn(len(vocab))]]++
		}
		return d
	}
	f := func() bool {
		var pos, neg []DocTerms
		for i := 0; i < 1+rng.Intn(5); i++ {
			pos = append(pos, randDoc())
		}
		for i := 0; i < rng.Intn(5); i++ {
			neg = append(neg, randDoc())
		}
		k := 1 + rng.Intn(6)
		sel := SelectMI(pos, neg, Options{TopK: k, Candidates: 0})
		if len(sel.Ranked) > k {
			return false
		}
		for _, st := range sel.Ranked {
			inPos := false
			for _, d := range pos {
				if d[st.Term] > 0 {
					inPos = true
					break
				}
			}
			if !inPos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTermPairs(t *testing.T) {
	stems := []string{"focus", "crawl", "web", "crawl"}
	pairs := TermPairs(stems, 2)
	if pairs[PairPrefix+"crawl+focus"] != 1 {
		t.Errorf("pairs = %v", pairs)
	}
	if pairs[PairPrefix+"crawl+web"] != 2 { // web+crawl both directions normalize
		t.Errorf("pairs = %v", pairs)
	}
	// identical terms in window do not pair with themselves
	self := TermPairs([]string{"x", "x"}, 3)
	if len(self) != 0 {
		t.Errorf("self pairs = %v", self)
	}
}

func TestTermPairsWindow(t *testing.T) {
	stems := []string{"a", "b", "c", "d", "e", "f"}
	narrow := TermPairs(stems, 2)
	wide := TermPairs(stems, 6)
	if len(narrow) >= len(wide) {
		t.Errorf("window has no effect: %d vs %d", len(narrow), len(wide))
	}
	if _, ok := narrow[PairPrefix+"a+f"]; ok {
		t.Error("distant pair in narrow window")
	}
}

func TestAnchorTerms(t *testing.T) {
	counts := AnchorTerms([]string{"click here", "database systems", "database tutorial"}, nil)
	if counts[AnchorPrefix+"databas"] != 2 {
		t.Errorf("counts = %v", counts)
	}
	if _, ok := counts[AnchorPrefix+"click"]; ok {
		t.Errorf("boilerplate kept: %v", counts)
	}
}

func TestNeighborTerms(t *testing.T) {
	n1 := map[string]int{"mine": 5, "olap": 3, "the": 100}
	out := NeighborTerms([]map[string]int{n1})
	if out[NeighborPrefix+"mine"] != 5 {
		t.Errorf("out = %v", out)
	}
	// cap at MaxNeighborTerms
	big := map[string]int{}
	for i := 0; i < 50; i++ {
		big[strings.Repeat("t", i+1)] = i
	}
	out = NeighborTerms([]map[string]int{big})
	if len(out) != MaxNeighborTerms {
		t.Errorf("len = %d, want %d", len(out), MaxNeighborTerms)
	}
}

func TestBuildSpaces(t *testing.T) {
	in := DocInput{
		Stems:     []string{"databas", "recoveri", "databas"},
		Anchors:   []string{"database papers"},
		Neighbors: []map[string]int{{"transact": 3}},
	}
	terms := Build(in, SpaceTerms, nil)
	if terms["databas"] != 2 || len(terms) != 2 {
		t.Errorf("terms = %v", terms)
	}
	pairs := Build(in, SpacePairs, nil)
	if _, ok := pairs[PairPrefix+"databas+recoveri"]; !ok {
		t.Errorf("pairs = %v", pairs)
	}
	anchors := Build(in, SpaceAnchors, nil)
	if _, ok := anchors[AnchorPrefix+"databas"]; !ok {
		t.Errorf("anchors = %v", anchors)
	}
	nb := Build(in, SpaceNeighbors, nil)
	if nb[NeighborPrefix+"transact"] != 3 {
		t.Errorf("neighbors = %v", nb)
	}
	comb := Build(in, SpaceCombined, nil)
	if _, ok := comb[PairPrefix+"databas+recoveri"]; !ok {
		t.Errorf("combined missing pairs: %v", comb)
	}
	if _, ok := comb[AnchorPrefix+"databas"]; !ok {
		t.Errorf("combined missing anchors: %v", comb)
	}
}

func TestSpaceString(t *testing.T) {
	for _, s := range AllSpaces {
		if s.String() == "unknown" {
			t.Errorf("space %d has no name", s)
		}
	}
	if Space(99).String() != "unknown" {
		t.Error("unknown space misnamed")
	}
}

func BenchmarkSelectMI(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	vocab := make([]string, 2000)
	for i := range vocab {
		vocab[i] = strings.Repeat(string(rune('a'+i%26)), 1+i%5) + string(rune('a'+(i/26)%26))
	}
	var pos, neg []DocTerms
	for i := 0; i < 50; i++ {
		d := DocTerms{}
		for j := 0; j < 100; j++ {
			d[vocab[rng.Intn(500)]]++
		}
		pos = append(pos, d)
		e := DocTerms{}
		for j := 0; j < 100; j++ {
			e[vocab[500+rng.Intn(1500)]]++
		}
		neg = append(neg, e)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SelectMI(pos, neg, DefaultOptions())
	}
}
