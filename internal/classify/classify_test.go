package classify

import (
	"fmt"
	"strings"
	"testing"

	"github.com/bingo-search/bingo/internal/features"
	"github.com/bingo-search/bingo/internal/textproc"
	"github.com/bingo-search/bingo/internal/vsm"
)

// mustAdd is Tree.Add for static fixture trees; it panics on invalid input.
func mustAdd(tree *Tree, segments ...string) *Node {
	n, err := tree.Add(segments...)
	if err != nil {
		panic(err)
	}
	return n
}

func mkDoc(id, text string) Doc {
	pipe := textproc.NewPipeline()
	return Doc{ID: id, Input: features.DocInput{Stems: pipe.Stems(text)}}
}

// buildFixture returns a tree (math{algebra,stochastics}, agriculture), a
// training set, and an idf table over the training corpus.
func buildFixture(t *testing.T) (*Tree, *TrainingSet, *vsm.IDFTable) {
	t.Helper()
	tree := NewTree()
	mustAdd(tree, "mathematics", "algebra")
	mustAdd(tree, "mathematics", "stochastics")
	mustAdd(tree, "agriculture")

	ts := NewTrainingSet()
	algebra := []string{
		"theorem about groups rings and fields in abstract algebra",
		"field extensions galois theory theorem proofs algebra",
		"commutative rings ideals algebra theorem lattice structures",
		"group theory field theory galois groups algebra theorem",
		"rings fields groups algebra galois extension theorem proofs",
	}
	stoch := []string{
		"theorem probability variance random variables stochastics",
		"stochastics markov chains probability distributions theorem",
		"probability measure theory random processes stochastics theorem",
		"variance expectation probability stochastics random walks",
		"markov processes stochastics probability variance theorem",
	}
	agri := []string{
		"tractor harvest crops soil farming wheat",
		"irrigation soil crops fertilizer farm harvest",
		"livestock cattle farm pasture harvest grain",
	}
	others := []string{
		"football match goals championship team sport",
		"movie actors cinema entertainment festival",
		"stock market shares trading finance news",
		"holiday travel beach hotel tourism",
	}
	corpus := vsm.NewCorpusStats()
	add := func(topic string, texts []string) {
		for i, txt := range texts {
			d := mkDoc(fmt.Sprintf("%s-%d", topic, i), txt)
			counts := map[string]int{}
			for _, s := range d.Input.Stems {
				counts[s]++
			}
			corpus.AddDoc(counts)
			if topic == "others" {
				ts.Others = append(ts.Others, d)
			} else {
				ts.Add(topic, d)
			}
		}
	}
	add("ROOT/mathematics/algebra", algebra)
	add("ROOT/mathematics/stochastics", stoch)
	add("ROOT/agriculture", agri)
	add("others", others)
	return tree, ts, corpus.Snapshot()
}

func TestTreeConstruction(t *testing.T) {
	tree := NewTree()
	n := mustAdd(tree, "mathematics", "algebra")
	if n.Path != "ROOT/mathematics/algebra" {
		t.Errorf("Path = %q", n.Path)
	}
	mustAdd(tree, "mathematics", "stochastics")
	mustAdd(tree, "arts")
	if len(tree.Root.Children) != 2 {
		t.Errorf("root children = %d", len(tree.Root.Children))
	}
	math, ok := tree.Lookup("ROOT/mathematics")
	if !ok || len(math.Children) != 2 {
		t.Fatalf("Lookup math = %v, %v", math, ok)
	}
	if got := len(tree.Nodes()); got != 4 {
		t.Errorf("Nodes = %d", got)
	}
	// idempotent add
	mustAdd(tree, "arts")
	if len(tree.Root.Children) != 2 {
		t.Error("duplicate add created node")
	}
	s := tree.String()
	if !strings.Contains(s, "ROOT") || !strings.Contains(s, "  mathematics") {
		t.Errorf("String = %q", s)
	}
}

func TestTreeInvalidSegments(t *testing.T) {
	tree := NewTree()
	for _, bad := range [][]string{{""}, {"a/b"}, {OthersLabel}} {
		if _, err := tree.Add(bad...); err == nil {
			t.Errorf("Add(%v) succeeded", bad)
		}
	}
}

func TestOthersHelpers(t *testing.T) {
	if OthersPath("ROOT/math") != "ROOT/math/OTHERS" {
		t.Error("OthersPath wrong")
	}
}

func TestTrainAndClassifyHierarchy(t *testing.T) {
	tree, ts, idf := buildFixture(t)
	c, err := Train(tree, ts, idf, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		text string
		want string
	}{
		{"galois theory proves theorems about field extensions and groups", "ROOT/mathematics/algebra"},
		{"markov chains model probability of random processes", "ROOT/mathematics/stochastics"},
		{"the farm harvest of wheat crops needs irrigation and soil care", "ROOT/agriculture"},
	}
	for _, tc := range cases {
		res := c.Classify(mkDoc("q", tc.text))
		if res.Topic != tc.want {
			t.Errorf("Classify(%q) = %+v, want %s", tc.text, res, tc.want)
		}
		if !res.Accepted || res.Confidence <= 0 {
			t.Errorf("result flags wrong: %+v", res)
		}
	}
}

func TestClassifyRejectsOffTopic(t *testing.T) {
	tree, ts, idf := buildFixture(t)
	c, err := Train(tree, ts, idf, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := c.Classify(mkDoc("q", "football championship goals and the winning sport team"))
	if res.Accepted {
		t.Fatalf("off-topic accepted: %+v", res)
	}
	if res.Topic != "ROOT/OTHERS" {
		t.Errorf("Topic = %s", res.Topic)
	}
}

func TestClassifyDescendsToOthersUnderParent(t *testing.T) {
	tree, ts, idf := buildFixture(t)
	c, err := Train(tree, ts, idf, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Math-but-neither-subtopic: generic math vocabulary present in both
	// children equally; must land in mathematics or one of its children or
	// mathematics/OTHERS, never in agriculture.
	res := c.Classify(mkDoc("q", "theorem theorem theorem proofs"))
	if strings.HasPrefix(res.Topic, "ROOT/agriculture") {
		t.Errorf("generic math doc in agriculture: %+v", res)
	}
}

func TestTrainMissingTrainingData(t *testing.T) {
	tree := NewTree()
	mustAdd(tree, "topicA")
	mustAdd(tree, "topicB")
	ts := NewTrainingSet()
	ts.Add("ROOT/topicA", mkDoc("a", "alpha beta gamma"))
	// topicB has no docs
	_, _, idf := buildFixture(t)
	if _, err := Train(tree, ts, idf, DefaultConfig()); err == nil {
		t.Fatal("expected error for topic without training docs")
	}
}

func TestTrainNeedsNegatives(t *testing.T) {
	tree := NewTree()
	mustAdd(tree, "only")
	ts := NewTrainingSet()
	ts.Add("ROOT/only", mkDoc("a", "alpha beta gamma"))
	// single topic without Others: no negatives available
	if _, err := Train(tree, ts, nil, DefaultConfig()); err == nil {
		t.Fatal("expected error for missing negatives")
	}
	ts.Others = []Doc{mkDoc("o1", "sports entertainment news"), mkDoc("o2", "travel hotels")}
	if _, err := Train(tree, ts, nil, DefaultConfig()); err != nil {
		t.Fatalf("train with Others failed: %v", err)
	}
}

func TestDecideAt(t *testing.T) {
	tree, ts, idf := buildFixture(t)
	c, _ := Train(tree, ts, idf, DefaultConfig())
	vote, conf := c.DecideAt("ROOT/agriculture", mkDoc("q", "soil crops harvest farm tractor"))
	if vote != +1 || conf <= 0 {
		t.Errorf("DecideAt agri = %d, %v", vote, conf)
	}
	vote, _ = c.DecideAt("ROOT/agriculture", mkDoc("q", "galois theorem field algebra"))
	if vote != -1 {
		t.Errorf("DecideAt off-topic = %d", vote)
	}
	vote, conf = c.DecideAt("ROOT/nonexistent", mkDoc("q", "x"))
	if vote != -1 || conf != 0 {
		t.Errorf("DecideAt unknown node = %d, %v", vote, conf)
	}
}

func TestTopFeaturesAndEstimates(t *testing.T) {
	tree, ts, idf := buildFixture(t)
	c, _ := Train(tree, ts, idf, DefaultConfig())
	top := c.TopFeatures("ROOT/agriculture", 5)
	if len(top) == 0 {
		t.Fatal("no top features")
	}
	joined := strings.Join(top, " ")
	if !strings.Contains(joined, "harvest") && !strings.Contains(joined, "crop") &&
		!strings.Contains(joined, "farm") && !strings.Contains(joined, "soil") {
		t.Errorf("agriculture features look wrong: %v", top)
	}
	if got := c.Topics(); len(got) != 4 {
		t.Errorf("Topics = %v", got)
	}
	if c.Tree() != tree {
		t.Error("Tree() wrong")
	}
}

// TestTopicTermsWeights pins the link-context term weights: the top-MI
// feature weighs 1 and the weight falls by 1/(2n) per rank.
func TestTopicTermsWeights(t *testing.T) {
	tree, ts, idf := buildFixture(t)
	c, _ := Train(tree, ts, idf, DefaultConfig())
	top := c.TopFeatures("ROOT/agriculture", 4)
	terms := c.TopicTerms("ROOT/agriculture", 4)
	if len(top) != 4 || len(terms) != 4 {
		t.Fatalf("TopFeatures = %v, TopicTerms = %v", top, terms)
	}
	for i, f := range top {
		if want := 1 - float64(i)/8; terms[f] != want {
			t.Errorf("weight of rank-%d feature %q = %v, want %v", i, f, terms[f], want)
		}
	}
	if got := c.TopicTerms("nope", 4); got != nil {
		t.Errorf("TopicTerms on unknown node = %v, want nil", got)
	}
}

func TestMultiSpaceMetaClassification(t *testing.T) {
	tree, ts, idf := buildFixture(t)
	cfg := DefaultConfig()
	cfg.Spaces = []features.Space{features.SpaceTerms, features.SpacePairs, features.SpaceCombined}
	cfg.Meta = MetaUnanimous
	c, err := Train(tree, ts, idf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := mkDoc("q", "galois theory theorem about field extensions groups algebra")
	res := c.ClassifyWithMode(d, MetaUnanimous)
	if res.Topic != "ROOT/mathematics/algebra" {
		t.Errorf("unanimous = %+v", res)
	}
	res = c.ClassifyWithMode(d, MetaWeighted)
	if res.Topic != "ROOT/mathematics/algebra" {
		t.Errorf("weighted = %+v", res)
	}
	res = c.ClassifyWithMode(d, MetaMajority)
	if res.Topic != "ROOT/mathematics/algebra" {
		t.Errorf("majority = %+v", res)
	}
}

func TestCombineMetaFunctions(t *testing.T) {
	yes := func(w float64) metaVote { return metaVote{value: 1, weight: w} }
	no := func(w float64) metaVote { return metaVote{value: -1, weight: w} }

	// unanimous: all agree
	if v, _ := combine([]metaVote{yes(1), yes(1), yes(1)}, MetaUnanimous); v != +1 {
		t.Errorf("unanimous all-yes = %d", v)
	}
	// unanimous: one dissent abstains or rejects, never +1
	if v, _ := combine([]metaVote{yes(1), yes(1), no(1)}, MetaUnanimous); v == +1 {
		t.Errorf("unanimous with dissent = %d", v)
	}
	if v, _ := combine([]metaVote{no(1), no(1), no(1)}, MetaUnanimous); v != -1 {
		t.Errorf("unanimous all-no = %d", v)
	}
	// majority
	if v, _ := combine([]metaVote{yes(1), yes(1), no(1)}, MetaMajority); v != +1 {
		t.Errorf("majority 2-1 = %d", v)
	}
	if v, _ := combine([]metaVote{yes(1), no(1)}, MetaMajority); v != 0 {
		t.Errorf("majority tie = %d", v)
	}
	// weighted: high-precision dissenter outweighs two weak yes votes
	if v, _ := combine([]metaVote{yes(0.1), yes(0.1), no(0.9)}, MetaWeighted); v != -1 {
		t.Errorf("weighted = %d", v)
	}
	// empty
	if v, c := combine(nil, MetaMajority); v != 0 || c != 0 {
		t.Errorf("empty combine = %d, %v", v, c)
	}
}

func TestTrainingSetHelpers(t *testing.T) {
	ts := NewTrainingSet()
	ts.Add("a", mkDoc("1", "x"))
	ts.Add("a", mkDoc("2", "y"))
	ts.Add("b", mkDoc("3", "z"))
	if ts.Size() != 3 {
		t.Errorf("Size = %d", ts.Size())
	}
}

func TestMetaModeString(t *testing.T) {
	for _, m := range []MetaMode{MetaBestSingle, MetaUnanimous, MetaMajority, MetaWeighted} {
		if m.String() == "unknown" {
			t.Errorf("mode %d unnamed", m)
		}
	}
	if MetaMode(42).String() != "unknown" {
		t.Error("unknown mode named")
	}
}

func BenchmarkClassify(b *testing.B) {
	tree := NewTree()
	mustAdd(tree, "mathematics", "algebra")
	mustAdd(tree, "mathematics", "stochastics")
	mustAdd(tree, "agriculture")
	ts := NewTrainingSet()
	texts := map[string][]string{
		"ROOT/mathematics/algebra":     {"theorem groups rings fields algebra", "galois field theorem algebra"},
		"ROOT/mathematics/stochastics": {"probability variance random stochastics", "markov probability stochastics theorem"},
		"ROOT/agriculture":             {"tractor harvest crops soil", "irrigation crops farm harvest"},
	}
	for topic, tt := range texts {
		for i, txt := range tt {
			ts.Add(topic, mkDoc(fmt.Sprintf("%s%d", topic, i), txt))
		}
	}
	ts.Others = []Doc{mkDoc("o1", "football sport goals"), mkDoc("o2", "cinema movie actors")}
	c, err := Train(NewTreeFrom(tree), ts, nil, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	d := mkDoc("q", "galois theorem field algebra groups")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Classify(d)
	}
}

// NewTreeFrom is a test helper: Train mutates nothing, so reuse is fine.
func NewTreeFrom(t *Tree) *Tree { return t }

func TestThreeLevelHierarchy(t *testing.T) {
	tree := NewTree()
	mustAdd(tree, "science", "math", "algebra")
	mustAdd(tree, "science", "math", "stochastics")
	mustAdd(tree, "science", "physics")
	ts := NewTrainingSet()
	add := func(topic string, texts ...string) {
		for i, txt := range texts {
			ts.Add(topic, mkDoc(fmt.Sprintf("%s-%d", topic, i), txt))
		}
	}
	add("ROOT/science/math/algebra",
		"groups rings fields galois algebra theorem",
		"field extensions algebra rings theorem groups",
		"algebra lattice ideals rings groups theorem")
	add("ROOT/science/math/stochastics",
		"probability variance markov stochastics theorem",
		"random processes stochastics probability theorem",
		"stochastics measure probability variance theorem")
	add("ROOT/science/physics",
		"quantum particles photons physics energy",
		"relativity physics spacetime gravity energy",
		"physics plasma magnetic fields energy quantum")
	ts.Others = []Doc{
		mkDoc("o1", "football goals match sport"),
		mkDoc("o2", "movie cinema actors festival"),
		mkDoc("o3", "travel hotel beach holiday"),
	}
	c, err := Train(tree, ts, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := c.Classify(mkDoc("q", "galois groups and field extensions in algebra theorem"))
	if res.Topic != "ROOT/science/math/algebra" {
		t.Errorf("algebra doc = %+v", res)
	}
	res = c.Classify(mkDoc("q", "quantum relativity physics energy"))
	if res.Topic != "ROOT/science/physics" {
		t.Errorf("physics doc = %+v", res)
	}
	res = c.Classify(mkDoc("q", "football sport goals"))
	if res.Accepted {
		t.Errorf("sport accepted: %+v", res)
	}
	// all five nodes trained (science, math, algebra, stochastics, physics)
	if got := len(c.Topics()); got != 5 {
		t.Errorf("trained nodes = %d", got)
	}
}

func TestClassifyEmptyDocument(t *testing.T) {
	tree, ts, idf := buildFixture(t)
	c, _ := Train(tree, ts, idf, DefaultConfig())
	res := c.Classify(Doc{ID: "empty"})
	// an empty document must be handled gracefully (typically rejected)
	if res.Topic == "" {
		t.Errorf("empty topic: %+v", res)
	}
}
