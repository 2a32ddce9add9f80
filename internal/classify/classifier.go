package classify

import (
	"fmt"
	"sort"

	"github.com/bingo-search/bingo/internal/features"
	"github.com/bingo-search/bingo/internal/svm"
	"github.com/bingo-search/bingo/internal/vsm"
)

// Doc is one document prepared for classification: its raw feature-space
// inputs plus an identifier for bookkeeping.
type Doc struct {
	ID    string
	Input features.DocInput
}

// TrainingSet maps topic paths to their positive training documents, plus
// the common-sense documents populating the OTHERS classes (§3.1: ~50
// documents from Yahoo-style top-level categories).
type TrainingSet struct {
	ByTopic map[string][]Doc
	Others  []Doc
}

// NewTrainingSet returns an empty training set.
func NewTrainingSet() *TrainingSet {
	return &TrainingSet{ByTopic: make(map[string][]Doc)}
}

// Add appends a positive example for topicPath.
func (ts *TrainingSet) Add(topicPath string, d Doc) {
	ts.ByTopic[topicPath] = append(ts.ByTopic[topicPath], d)
}

// Size returns the total number of topic training documents.
func (ts *TrainingSet) Size() int {
	n := 0
	for _, ds := range ts.ByTopic {
		n += len(ds)
	}
	return n
}

// Config controls classifier training.
type Config struct {
	// Spaces lists the feature spaces to train parallel classifiers on.
	// Default: terms only.
	Spaces []features.Space
	// Meta selects the run-time combination function (§3.5).
	Meta MetaMode
	// FeatureOpts tunes per-node feature selection (paper: top 2000 of the
	// 5000 most frequent).
	FeatureOpts features.Options
	// SVM tunes the per-node SVM training.
	SVM svm.Params
}

// DefaultConfig trains a single terms-space classifier with the paper's
// feature selection tuning.
func DefaultConfig() Config {
	return Config{
		Spaces:      []features.Space{features.SpaceTerms},
		Meta:        MetaBestSingle,
		FeatureOpts: features.DefaultOptions(),
		SVM:         svm.DefaultParams(),
	}
}

// spaceModel is one (feature space, selection, SVM) triple for a node.
type spaceModel struct {
	space features.Space
	sel   *features.Selection
	model *svm.Model
	est   svm.Estimate
}

// nodeClassifier holds the parallel per-space models of one topic node.
type nodeClassifier struct {
	path   string
	models []spaceModel
	// best indexes the model with the highest ξα precision estimate.
	best int
}

// Classifier is a trained hierarchical classifier.
type Classifier struct {
	tree  *Tree
	cfg   Config
	idf   *vsm.IDFTable
	nodes map[string]*nodeClassifier
}

// Result is a classification outcome.
type Result struct {
	// Topic is the assigned tree path; reject paths end in /OTHERS.
	Topic string
	// Confidence is the SVM confidence (meta-combined decision value) at
	// the deepest accepting node; 0 when the document was rejected at ROOT.
	Confidence float64
	// Accepted is false when Topic is an OTHERS path.
	Accepted bool
}

// Train builds one binary classifier per topic node: positive examples are
// the node's (and its descendants') training documents, negative examples
// the positives of its competing siblings plus the OTHERS documents (§3.1).
func Train(tree *Tree, ts *TrainingSet, idf *vsm.IDFTable, cfg Config) (*Classifier, error) {
	if len(cfg.Spaces) == 0 {
		cfg.Spaces = []features.Space{features.SpaceTerms}
	}
	if cfg.FeatureOpts.TopK == 0 {
		cfg.FeatureOpts = features.DefaultOptions()
	}
	c := &Classifier{tree: tree, cfg: cfg, idf: idf, nodes: make(map[string]*nodeClassifier)}

	for _, node := range tree.Nodes() {
		pos := subtreeDocs(tree, ts, node)
		if len(pos) == 0 {
			return nil, fmt.Errorf("classify: topic %s has no training documents", node.Path)
		}
		var neg []Doc
		for _, sib := range node.Parent.Children {
			if sib == node {
				continue
			}
			neg = append(neg, subtreeDocs(tree, ts, sib)...)
		}
		// OTHERS documents always complement the negatives; for topics
		// without proper siblings they are the only negatives (§3.1).
		neg = append(neg, ts.Others...)
		if len(neg) == 0 {
			return nil, fmt.Errorf("classify: topic %s has no negative examples (populate TrainingSet.Others)", node.Path)
		}
		nc, err := c.trainNode(node.Path, pos, neg)
		if err != nil {
			return nil, fmt.Errorf("classify: train %s: %w", node.Path, err)
		}
		c.nodes[node.Path] = nc
	}
	return c, nil
}

// subtreeDocs gathers training docs of node and all its descendants.
func subtreeDocs(tree *Tree, ts *TrainingSet, node *Node) []Doc {
	var out []Doc
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, ts.ByTopic[n.Path]...)
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(node)
	return out
}

func (c *Classifier) trainNode(path string, pos, neg []Doc) (*nodeClassifier, error) {
	nc := &nodeClassifier{path: path}
	for _, space := range c.cfg.Spaces {
		posCounts := make([]features.DocTerms, len(pos))
		for i, d := range pos {
			posCounts[i] = features.Build(d.Input, space, nil)
		}
		negCounts := make([]features.DocTerms, len(neg))
		for i, d := range neg {
			negCounts[i] = features.Build(d.Input, space, nil)
		}
		sel := features.SelectMI(posCounts, negCounts, c.cfg.FeatureOpts)
		examples := make([]svm.Example, 0, len(pos)+len(neg))
		for _, counts := range posCounts {
			examples = append(examples, svm.Example{Features: c.vectorize(counts, sel), Label: +1})
		}
		for _, counts := range negCounts {
			examples = append(examples, svm.Example{Features: c.vectorize(counts, sel), Label: -1})
		}
		model, err := svm.Train(examples, c.cfg.SVM)
		if err != nil {
			return nil, err
		}
		nc.models = append(nc.models, spaceModel{
			space: space, sel: sel, model: model, est: model.XiAlpha(),
		})
	}
	// Pick the space with the best estimated generalization performance
	// (§3.5: "selects the one that has the best estimated generalization
	// performance").
	best := 0
	for i, sm := range nc.models {
		if sm.est.Precision > nc.models[best].est.Precision {
			best = i
		}
	}
	nc.best = best
	return nc, nil
}

// vectorize builds the tf·idf vector restricted to the selected features and
// normalized to unit length.
func (c *Classifier) vectorize(counts map[string]int, sel *features.Selection) vsm.Vector {
	var v vsm.Vector
	if c.idf != nil {
		v = c.idf.Weight(counts)
	} else {
		v = vsm.FromCounts(counts)
	}
	return v.Project(sel.Set()).Normalize()
}

// DecideAt runs one node's binary (meta) classifier on d. vote is +1 (yes),
// -1 (no) or 0 (the meta classifier abstains); confidence is the combined
// decision magnitude.
func (c *Classifier) DecideAt(topicPath string, d Doc) (vote int, confidence float64) {
	return c.decideAtMode(topicPath, d, c.cfg.Meta)
}

func (c *Classifier) decideAtMode(topicPath string, d Doc, mode MetaMode) (int, float64) {
	nc, ok := c.nodes[topicPath]
	if !ok {
		return -1, 0
	}
	if mode == MetaBestSingle || len(nc.models) == 1 {
		sm := nc.models[nc.best]
		val := sm.model.Decide(c.vectorize(features.Build(d.Input, sm.space, nil), sm.sel))
		if val > 0 {
			return +1, val
		}
		return -1, -val
	}
	votes := make([]metaVote, len(nc.models))
	for i, sm := range nc.models {
		val := sm.model.Decide(c.vectorize(features.Build(d.Input, sm.space, nil), sm.sel))
		votes[i] = metaVote{value: val, weight: sm.est.Precision}
	}
	return combine(votes, mode)
}

// Classify assigns d to a topic by descending the tree (§2.4): at each level
// the binary classifiers of all competing children are invoked; the document
// moves to the child with the highest confidence among positive decisions,
// or to the artificial OTHERS node when every child says no.
func (c *Classifier) Classify(d Doc) Result {
	return c.ClassifyWithMode(d, c.cfg.Meta)
}

// ClassifyWithMode classifies with an explicit meta-combination mode.
func (c *Classifier) ClassifyWithMode(d Doc, mode MetaMode) Result {
	cur := c.tree.Root
	conf := 0.0
	for len(cur.Children) > 0 {
		var best *Node
		bestConf := 0.0
		for _, child := range cur.Children {
			vote, cf := c.decideAtMode(child.Path, d, mode)
			if vote > 0 && (best == nil || cf > bestConf) {
				best = child
				bestConf = cf
			}
		}
		if best == nil {
			return Result{Topic: OthersPath(cur.Path), Confidence: conf, Accepted: false}
		}
		cur = best
		conf = bestConf
	}
	return Result{Topic: cur.Path, Confidence: conf, Accepted: true}
}

// TopFeatures returns the n highest-MI features selected for a topic node in
// the best space (the paper's §2.3 example lists such stems for a topic).
func (c *Classifier) TopFeatures(topicPath string, n int) []string {
	nc, ok := c.nodes[topicPath]
	if !ok {
		return nil
	}
	ranked := nc.models[nc.best].sel.Ranked
	if n > len(ranked) {
		n = len(ranked)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = ranked[i].Term
	}
	return out
}

// TopicTerms returns a topic's n top-MI features as weighted terms for the
// frontier's link-context score. The weight decays linearly with rank, so
// the top feature counts twice as much as the last one. Nil when the topic
// has no features.
func (c *Classifier) TopicTerms(topicPath string, n int) map[string]float64 {
	feats := c.TopFeatures(topicPath, n)
	if len(feats) == 0 {
		return nil
	}
	terms := make(map[string]float64, len(feats))
	for i, f := range feats {
		terms[f] = 1 - float64(i)/float64(2*len(feats))
	}
	return terms
}

// Tree returns the classifier's topic tree.
func (c *Classifier) Tree() *Tree { return c.tree }

// Topics returns the trained topic paths, sorted.
func (c *Classifier) Topics() []string {
	out := make([]string, 0, len(c.nodes))
	for p := range c.nodes {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
