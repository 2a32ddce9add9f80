package textproc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Classic vocabulary from Porter's published test data plus the stems the
// paper's own feature-selection example reports (§2.3: "mine, knowledg,
// olap, ... discov, cluster, dataset").
func TestStemKnownPairs(t *testing.T) {
	cases := map[string]string{
		"caresses":       "caress",
		"ponies":         "poni",
		"ties":           "ti",
		"caress":         "caress",
		"cats":           "cat",
		"feed":           "feed",
		"agreed":         "agre",
		"plastered":      "plaster",
		"bled":           "bled",
		"motoring":       "motor",
		"sing":           "sing",
		"conflated":      "conflat",
		"troubled":       "troubl",
		"sized":          "size",
		"hopping":        "hop",
		"tanned":         "tan",
		"falling":        "fall",
		"hissing":        "hiss",
		"fizzed":         "fizz",
		"failing":        "fail",
		"filing":         "file",
		"happy":          "happi",
		"sky":            "sky",
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		"triplicate":     "triplic",
		"formative":      "form",
		"formalize":      "formal",
		"electriciti":    "electr",
		"electrical":     "electr",
		"hopeful":        "hope",
		"goodness":       "good",
		"revival":        "reviv",
		"allowance":      "allow",
		"inference":      "infer",
		"airliner":       "airlin",
		"gyroscopic":     "gyroscop",
		"adjustable":     "adjust",
		"defensible":     "defens",
		"irritant":       "irrit",
		"replacement":    "replac",
		"adjustment":     "adjust",
		"dependent":      "depend",
		"adoption":       "adopt",
		"homologou":      "homolog",
		"communism":      "commun",
		"activate":       "activ",
		"angulariti":     "angular",
		"homologous":     "homolog",
		"effective":      "effect",
		"bowdlerize":     "bowdler",
		"probate":        "probat",
		"rate":           "rate",
		"cease":          "ceas",
		"controll":       "control",
		"roll":           "roll",
		// Paper §2.3 feature-selection examples.
		"mining":      "mine",
		"knowledge":   "knowledg",
		"patterns":    "pattern",
		"discovery":   "discoveri",
		"clustering":  "cluster",
		"datasets":    "dataset",
		"databases":   "databas",
		"recovery":    "recoveri",
		"algorithms":  "algorithm",
		"transaction": "transact",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortAndNonASCII(t *testing.T) {
	for _, w := range []string{"a", "ab", "", "über", "naïve", "x86", "été"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemIdempotentOnCommonWords(t *testing.T) {
	words := []string{"running", "databases", "classification", "retrieval",
		"crawling", "engines", "optimization", "probabilities", "authorities"}
	for _, w := range words {
		once := Stem(w)
		twice := Stem(once)
		// Porter is not idempotent in general, but must be on these stems.
		if thrice := Stem(twice); thrice != twice {
			t.Errorf("Stem not stable on %q: %q -> %q", w, twice, thrice)
		}
	}
}

// Property: stemming never lengthens an all-lowercase ASCII word beyond
// +1 byte (the e-restoration case) and output is a prefix-compatible
// transformation: first letter is preserved.
func TestStemProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		n := 3 + rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		w := string(b)
		s := Stem(w)
		if len(s) > len(w)+1 {
			t.Logf("lengthened: %q -> %q", w, s)
			return false
		}
		if len(s) == 0 || s[0] != w[0] {
			t.Logf("first letter changed: %q -> %q", w, s)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestTokenize(t *testing.T) {
	toks := Tokenize("The ARIES recovery-algorithm, by C. Mohan (IBM) in 1992!")
	var got []string
	for _, tk := range toks {
		got = append(got, tk.Text)
	}
	want := []string{"the", "aries", "recovery", "algorithm", "by", "mohan", "ibm", "in"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
	for i, tk := range toks {
		if tk.Position != i {
			t.Errorf("token %d has position %d", i, tk.Position)
		}
	}
}

func TestTokenizeDropsPureNumbers(t *testing.T) {
	got := Words("2003 CIDR conference 42 papers r2d2")
	want := []string{"cidr", "conference", "papers", "r2d2"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("Words = %v, want %v", got, want)
	}
}

func TestTokenizeEmptyAndWhitespace(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize(\"\") = %v", got)
	}
	if got := Tokenize("  \t\n  "); len(got) != 0 {
		t.Errorf("Tokenize(whitespace) = %v", got)
	}
}

func TestPipelineStems(t *testing.T) {
	p := NewPipeline()
	got := p.Stems("The databases are running the recovery algorithms")
	want := []string{"databas", "run", "recoveri", "algorithm"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("Stems = %v, want %v", got, want)
	}
}

func TestPipelineStemCounts(t *testing.T) {
	p := NewPipeline()
	counts := Counts(p.Stems("database database databases mining"))
	if counts["databas"] != 3 {
		t.Errorf("databas count = %d, want 3", counts["databas"])
	}
	if counts["mine"] != 1 {
		t.Errorf("mine count = %d, want 1", counts["mine"])
	}
}

func TestAnchorPipelineDropsBoilerplate(t *testing.T) {
	p := NewAnchorPipeline()
	got := p.Stems("click here for the database homepage link")
	want := []string{"databas"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("anchor Stems = %v, want %v", got, want)
	}
}

func TestStopSet(t *testing.T) {
	s := DefaultStopwords()
	for _, w := range []string{"the", "and", "of", "is"} {
		if !s.Contains(w) {
			t.Errorf("expected stopword %q", w)
		}
	}
	for _, w := range []string{"database", "crawler", "svm"} {
		if s.Contains(w) {
			t.Errorf("unexpected stopword %q", w)
		}
	}
}

func BenchmarkStem(b *testing.B) {
	words := []string{"classification", "databases", "recovery", "crawling",
		"authorities", "optimization", "generalization", "probabilities"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}

func BenchmarkPipeline(b *testing.B) {
	p := NewPipeline()
	text := strings.Repeat("The BINGO system interleaves crawling classification link analysis and text filtering for focused web search. ", 20)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Stems(text)
	}
}
